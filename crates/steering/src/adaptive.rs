//! The SPMD driver for measurement-driven adaptive load balancing.
//!
//! [`hemelb_partition::adaptive`] holds the pure decision logic
//! (hysteresis, weight derivation, cost/benefit gate); this module
//! supplies the measurements and applies the verdict:
//!
//! 1. every decision window, each rank reads its own `lb.*` and
//!    `vis.render` span totals from the observability recorder — the
//!    *measured* per-rank cost, not a site count;
//! 2. the per-rank costs are **all-reduced** so every rank holds the
//!    identical cost vector and therefore reaches the identical
//!    decision — the trigger is collective without extra control
//!    messages;
//! 3. on trigger, the plan from
//!    [`plan_rebalance`](hemelb_partition::plan_rebalance) is priced
//!    with an α–β–γ [`CostModel`] (projected migration seconds) and
//!    gated by [`payoff_gate`](hemelb_partition::payoff_gate) against
//!    the projected saving over the remaining steps. The pricing model
//!    **self-calibrates**: every window's all-reduced measurements
//!    (span totals, message/byte counts, send times) feed a
//!    non-negative least-squares fit
//!    ([`hemelb_parallel::calibrate_fit`]), and each term that fit
//!    measures replaces the preset's — migrations are priced at this
//!    machine's measured rates, identically on every rank because the
//!    fit is a pure function of all-reduced inputs;
//! 4. an applied plan goes through [`DistSolver::repartition`], which
//!    is bit-transparent — physics after an adaptive rebalance is
//!    bit-identical to never having rebalanced.
//!
//! Every decision is surfaced as `lb.rebalance.*` obs counters, so the
//! phase reports show *why* a rebalance did or did not happen.

use crate::error::SteeringResult;
use hemelb_core::DistSolver;
use hemelb_geometry::SparseGeometry;
use hemelb_parallel::{calibrate_fit, CalSample, Communicator, CostModel, MachineModel};
use hemelb_partition::graph::Connectivity;
use hemelb_partition::{
    payoff_gate, plan_rebalance, AdaptiveLb, AdaptiveLbConfig, GateDecision, Observation,
    SiteGraph, WindowCosts,
};

/// Simulation phases whose span totals count as per-rank *load*.
/// `lb.halo-wait` is deliberately excluded: wait time is idleness
/// *caused by* imbalance on other ranks — including it would make the
/// starved ranks look busy and invert the signal. `lb.overlap.compute`
/// is excluded too: it is an umbrella span over the interior
/// `lb.collide`/`lb.stream` pieces and would double-count them.
const SIM_PHASES: [&str; 5] = [
    "lb.collide",
    "lb.collide-frontier",
    "lb.stream",
    "lb.halo-pack",
    "lb.macroscopics",
];

/// Visualisation phase whose span total counts as per-rank vis load.
const VIS_PHASE: &str = "vis.render";

/// What one decision window concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDecision {
    /// The hysteresis observation for this window.
    pub observation: Observation,
    /// The cost/benefit verdict, present only when the window triggered
    /// and a plan could be formed.
    pub gate: Option<GateDecision>,
    /// Vertices the plan would move globally (0 when nothing planned).
    pub planned_moves: usize,
    /// Whether a repartition was applied this window.
    pub applied: bool,
    /// Sites this rank shipped away (0 unless applied).
    pub sites_moved_local: usize,
}

/// Per-rank driver state for the adaptive load balancer. Construct one
/// per run (it snapshots obs counters incrementally) and call
/// [`AdaptiveDriver::end_window`] collectively every
/// `config.window_steps` steps.
pub struct AdaptiveDriver {
    lb: AdaptiveLb,
    graph: SiteGraph,
    cost_model: CostModel,
    /// Model fitted from this run's own windows, with `cost_model`'s
    /// value for any term the fit could not price; replaces
    /// `cost_model` for migration pricing as soon as a fit exists.
    calibrated: Option<CostModel>,
    /// Calibration samples accumulated from all-reduced window
    /// measurements — identical on every rank by construction.
    samples: Vec<CalSample>,
    prev_sim_secs: f64,
    prev_vis_secs: f64,
    prev_msgs: u64,
    prev_bytes: u64,
    prev_send_secs: f64,
    last_imbalance: f64,
    applied: u64,
}

/// Cap on retained calibration samples: enough windows to fit well,
/// bounded so a long run's driver state stays small. Growth simply
/// stops at the cap (identically on every rank), keeping the fit —
/// and therefore the collective decisions — consistent.
const MAX_CAL_SAMPLES: usize = 512;

impl AdaptiveDriver {
    /// Build the driver: the site graph is constructed once from the
    /// geometry (topology never changes mid-run). Migrations start out
    /// priced with the shared-memory preset and switch to the
    /// self-calibrated fit as windows accumulate measurements.
    pub fn new(geo: &SparseGeometry, cfg: AdaptiveLbConfig) -> Self {
        AdaptiveDriver {
            lb: AdaptiveLb::new(cfg),
            graph: SiteGraph::from_geometry(geo, Connectivity::Six),
            cost_model: CostModel::for_machine(MachineModel::SharedMemory),
            calibrated: None,
            samples: Vec::new(),
            prev_sim_secs: 0.0,
            prev_vis_secs: 0.0,
            prev_msgs: 0,
            prev_bytes: 0,
            prev_send_secs: 0.0,
            last_imbalance: 1.0,
            applied: 0,
        }
    }

    /// Price migrations with a different *fallback* machine model (e.g.
    /// [`MachineModel::CrayXe6`] for co-design projections). Once the
    /// driver's own window measurements yield a calibrated fit, the
    /// terms it measured take over the pricing (see
    /// [`AdaptiveDriver::pricing_model`]).
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// The model currently pricing migrations: the self-calibrated fit
    /// once one exists, the fallback preset before that.
    pub fn pricing_model(&self) -> &CostModel {
        self.calibrated.as_ref().unwrap_or(&self.cost_model)
    }

    /// Whether migration pricing is running on a self-calibrated model
    /// (false until the windows gave enough samples for a fit).
    pub fn is_calibrated(&self) -> bool {
        self.calibrated.is_some()
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdaptiveLbConfig {
        self.lb.config()
    }

    /// The worst (sim or vis) imbalance measured in the most recent
    /// window, 1.0 before the first window completes.
    pub fn last_imbalance(&self) -> f64 {
        self.last_imbalance
    }

    /// Repartitions applied by this driver so far.
    pub fn rebalances_applied(&self) -> u64 {
        self.applied
    }

    /// Read this rank's cumulative load-proportional span totals.
    fn phase_totals(&self, comm: &Communicator) -> (f64, f64) {
        comm.with_obs(|o| {
            let sim = SIM_PHASES
                .iter()
                .filter_map(|p| o.phase_stats(p))
                .map(|s| s.total_secs)
                .sum();
            let vis = o.phase_stats(VIS_PHASE).map_or(0.0, |s| s.total_secs);
            (sim, vis)
        })
    }

    /// Close one decision window: gather per-rank costs, run the
    /// hysteresis filter, and — when it triggers — plan, price and
    /// maybe apply a repartition. **Collective**: every rank must call
    /// this at the same point in the step sequence.
    ///
    /// `steps_elapsed` is how many steps this window covered;
    /// `steps_remaining` is the horizon the migration must amortise
    /// over. Planning failures are absorbed (counted under
    /// `lb.rebalance.skipped.error`), never fatal; only communicator
    /// errors propagate.
    pub fn end_window(
        &mut self,
        comm: &Communicator,
        solver: &mut DistSolver,
        steps_elapsed: u64,
        steps_remaining: u64,
    ) -> SteeringResult<WindowDecision> {
        // 1. This rank's cost for the window = delta of cumulative span
        // totals since the previous window boundary.
        let (sim_total, vis_total) = self.phase_totals(comm);
        let sim = (sim_total - self.prev_sim_secs).max(0.0);
        let vis = (vis_total - self.prev_vis_secs).max(0.0);
        self.prev_sim_secs = sim_total;
        self.prev_vis_secs = vis_total;

        // This rank's communication deltas for the window, for the
        // calibration samples. `send_secs` (time spent inside sends),
        // not `recv_wait`: wait is idleness *caused by* imbalance
        // elsewhere — folding it in would inflate α with load skew and
        // invert the signal, the same reason `lb.halo-wait` is excluded
        // from SIM_PHASES.
        let stats = comm.stats();
        let msgs = stats.total_msgs().saturating_sub(self.prev_msgs);
        let bytes = stats.total_bytes().saturating_sub(self.prev_bytes);
        let send_secs = (stats.total_send_secs() - self.prev_send_secs).max(0.0);
        self.prev_msgs = stats.total_msgs();
        self.prev_bytes = stats.total_bytes();
        self.prev_send_secs = stats.total_send_secs();
        let work = solver.local_sites().len() as u64 * steps_elapsed.max(1);

        // 2. Share: each rank fills its own slot group, sum-reduce, so
        // every rank ends up with the identical per-rank measurement
        // vector and every later decision — including the calibration
        // fit — is collectively consistent by construction.
        let size = comm.size();
        const SLOTS: usize = 6;
        let mut slots = vec![0.0f64; SLOTS * size];
        let base = SLOTS * comm.rank();
        slots[base] = sim;
        slots[base + 1] = vis;
        slots[base + 2] = msgs as f64;
        slots[base + 3] = bytes as f64;
        slots[base + 4] = work as f64;
        slots[base + 5] = send_secs;
        let reduced = comm.all_reduce_f64_vec(slots, |a, b| a + b)?;
        let costs = WindowCosts {
            sim_secs: (0..size).map(|r| reduced[SLOTS * r]).collect(),
            vis_secs: (0..size).map(|r| reduced[SLOTS * r + 1]).collect(),
            steps: steps_elapsed.max(1),
        };

        // 2b. Self-calibration: every rank contributes one pure-compute
        // sample (sim span total vs site updates) and one pure-comm
        // sample (send time vs message/byte counts) per window. The
        // inputs are the all-reduced vector, so the fit — a pure
        // function — lands on bit-identical coefficients everywhere.
        for r in 0..size {
            if self.samples.len() + 2 > MAX_CAL_SAMPLES {
                break;
            }
            self.samples.push(CalSample {
                msgs: 0,
                bytes: 0,
                work: reduced[SLOTS * r + 4] as u64,
                secs: reduced[SLOTS * r],
            });
            self.samples.push(CalSample {
                msgs: reduced[SLOTS * r + 2] as u64,
                bytes: reduced[SLOTS * r + 3] as u64,
                work: 0,
                secs: reduced[SLOTS * r + 5],
            });
        }
        // Every window sends the same halo messages, so bytes per
        // message hardly varies between samples and the fit cannot
        // split their cost between α and β: noise decides, and the
        // non-negativity clamp often prices bytes as free (β = ∞).
        // Such a term was not measured, so it keeps the preset's value.
        if let Ok(cal) = calibrate_fit(&self.samples) {
            self.calibrated = Some(cal.with_fallback(&self.cost_model));
        }

        // 3. Hysteresis.
        let observation = self.lb.observe(&costs);
        self.last_imbalance = observation.sim_imbalance.max(observation.vis_imbalance);
        comm.with_obs(|o| {
            if observation.hot {
                o.count("lb.rebalance.windows_hot", 1);
            }
        });
        let mut decision = WindowDecision {
            observation,
            gate: None,
            planned_moves: 0,
            applied: false,
            sites_moved_local: 0,
        };
        if !observation.triggered {
            return Ok(decision);
        }
        comm.with_obs(|o| o.count("lb.rebalance.triggered", 1));

        // 4. Plan from measured costs. A malformed plan input must not
        // take the run down — that is the whole point of the typed
        // partition errors.
        let plan = match plan_rebalance(&self.graph, solver.owner(), size, self.lb.config(), &costs)
        {
            Ok(plan) => plan,
            Err(_) => {
                comm.with_obs(|o| o.count("lb.rebalance.skipped.error", 1));
                self.lb.reset();
                return Ok(decision);
            }
        };
        decision.planned_moves = plan.moved_vertices;

        // 5. Price the migration: every moving site ships its q
        // distributions plus its id, after a counts exchange (one small
        // message per rank pair).
        let q = solver.model().q;
        let mig_bytes = plan.moved_vertices as u64 * (4 + 8 * q as u64);
        let mig_msgs = 2 * (size as u64) * (size as u64);
        let migration_secs = self.pricing_model().time(mig_msgs, mig_bytes, 0);
        let gate = payoff_gate(
            &plan,
            &costs,
            migration_secs,
            steps_remaining,
            self.lb.config(),
        );
        decision.gate = Some(gate);
        if !gate.apply {
            comm.with_obs(|o| o.count("lb.rebalance.skipped.gate", 1));
            self.lb.reset();
            return Ok(decision);
        }

        // 6. Apply. `repartition` is bit-transparent, so the physics is
        // unchanged; it also bumps `lb.rebalance.count` /
        // `lb.rebalance.sites_moved` and the CommStats rebalance column.
        decision.sites_moved_local = solver.repartition(plan.owner)?;
        decision.applied = true;
        self.applied += 1;
        comm.with_obs(|o| o.count("lb.rebalance.applied", 1));
        // The measurements that justified this trigger describe the old
        // decomposition; start accumulating evidence afresh.
        self.lb.reset();
        Ok(decision)
    }
}
