/**
 * @file
 * The scenario registry: named points of the machine x policy x noise
 * x algorithm x stage matrix, so benches, tests and future sweeps
 * address scenarios by name instead of re-wiring configuration by
 * hand.  Adding a scenario for a new policy, host or victim is ~10
 * lines in builtinScenarios().
 */

#ifndef LLCF_SCENARIO_REGISTRY_HH
#define LLCF_SCENARIO_REGISTRY_HH

#include <string_view>
#include <vector>

#include "scenario/scenario.hh"

namespace llcf {

/**
 * The bench suite that runs a cell by default.  Every cell has exactly
 * one owner, decided by scenarioSuite() and nowhere else; a suite's
 * default run is the cells it owns (ScenarioRegistry::owned()), and
 * each committed BENCH_*.json baseline names exactly those cells.
 */
enum class ScenarioSuite
{
    Matrix,    //!< bench_matrix: single-victim build/scan/e2e cells
    E2e,       //!< bench_e2e: victim-fleet campaigns
    FullScale, //!< bench_e2e --full-scale: the fullScaleOnly fleets
    Calib,     //!< bench_calib: Step-0 calibration cells
    Defense,   //!< bench_defense: cells deploying the defense axis
    Traffic,   //!< bench_traffic: cells setting the traffic axis
    Paper,     //!< bench_paper: the paper's figures and tables
};

/**
 * The suite owning @p spec.  A cell naming a paper item is
 * bench_paper's.  Otherwise the axes take precedence over the stage:
 * a defended cell is bench_defense's and a traffic cell
 * bench_traffic's whatever stage it drives; otherwise campaigns go to
 * bench_e2e (its full-scale tier for fullScaleOnly fleets),
 * calibrations to bench_calib and everything else to bench_matrix.
 */
ScenarioSuite scenarioSuite(const ScenarioSpec &spec);

/**
 * An ordered, name-unique collection of scenario specs.  Insertion
 * order is preserved — it determines every suite's execution and
 * JSON output order.
 */
class ScenarioRegistry
{
  public:
    /** Register one scenario; fatal on a duplicate name. */
    void add(ScenarioSpec spec);

    /** Spec by exact name, or nullptr. */
    const ScenarioSpec *find(std::string_view name) const;

    /** All specs in registration order. */
    const std::vector<ScenarioSpec> &all() const { return specs_; }

    /**
     * Resolve a comma-separated selection.  Each element is an exact
     * name or a prefix glob like "build-*"; fatal on an element that
     * matches nothing.  Duplicates are dropped, order follows the
     * registry.
     */
    std::vector<const ScenarioSpec *> select(std::string_view patterns)
        const;

    /** The cells @p suite owns (its default run), in registry order. */
    std::vector<const ScenarioSpec *> owned(ScenarioSuite suite) const;

  private:
    std::vector<ScenarioSpec> specs_;
};

/**
 * The built-in scenario matrix: both host configurations (Skylake-SP
 * and Ice Lake-SP), all four replacement policies, the paper's noise
 * regimes plus the deterministic "silent" lab, every pruning
 * algorithm, and all three pipeline stages.
 */
const ScenarioRegistry &builtinScenarios();

} // namespace llcf

#endif // LLCF_SCENARIO_REGISTRY_HH
