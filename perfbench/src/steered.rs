//! `steered-insitu`: a gateway-mode closed loop on the Small aneurysm
//! (about 17 k sites) rendering 256×192 frames on 2 ranks, driven by one
//! client thread that holds two sessions: the driver, which plays the
//! seeded script and waits for each reply before sending the next
//! command, and an observer, drained without blocking after each driver
//! frame.
//!
//! The script alternates a live orbit (camera moves, occasional inlet
//! pressure writes, the flow advancing — every frame a cache miss) with
//! a paused phase that revisits bookmarked views (each bookmark's first
//! visit renders, its revisit is a frame-cache hit). Every driver frame
//! must decode at the requested size, and every paused revisit must be
//! byte-identical to the first render of that view.
//!
//! `setup_s` covers reading the `.sgmy`, the k-way partition, the world
//! and solver construction inside the closed loop, and the first driver
//! frame.

use crate::aneurysm::{bytes_per_site_update, read_geometry};
use crate::common::{counter, peak_rss_mib, phase_secs, ratio, Ctx, Outcome, RANKS};
use crate::gen::{self, Script, ScriptStep, View};
use crate::report::Tally;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use hemelb_core::SolverConfig;
use hemelb_geometry::SparseGeometry;
use hemelb_parallel::{run_spmd_with_stats, CommStats, SpmdOutput, TagClass};
use hemelb_partition::graph::{Connectivity, SiteGraph};
use hemelb_partition::{quality, MultilevelKWay, Partitioner};
use hemelb_steering::protocol::ServerMessage;
use hemelb_steering::{
    duplex_listener, run_closed_loop_opts, Acceptor, ClosedLoopConfig, ClosedLoopOutcome,
    GatewayConfig, ImageFrame, SteeringClient, SteeringCommand, SteeringResult,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rendered frame size.
const IMAGE: (u32, u32) = (256, 192);

fn solver_config() -> SolverConfig {
    SolverConfig::pressure_driven(1.008, 0.995)
}

type World = SpmdOutput<SteeringResult<ClosedLoopOutcome>>;

/// One closed-loop world plus the client thread's two sessions.
struct Session<'scope> {
    driver: SteeringClient,
    observer: SteeringClient,
    world: ScopedJoinHandle<'scope, World>,
    /// Frames the driver received (every one was broadcast).
    driver_frames: u64,
    /// Images the observer received.
    observer_frames: u64,
    /// Simulation step of the last driver frame.
    last_step: u64,
}

impl<'scope> Session<'scope> {
    /// Start a world, attach driver then observer, and wait for the
    /// driver's first frame.
    fn start<'env>(
        scope: &'scope Scope<'scope, 'env>,
        tr: &'env Tracer,
        geo: &Arc<SparseGeometry>,
        owner: &[usize],
        program_obs: bool,
        tally: &mut Tally,
    ) -> Self {
        let (connector, acceptor) = duplex_listener();
        let slot = Mutex::new(Some(Box::new(acceptor) as Box<dyn Acceptor>));
        let (geo, owner) = (geo.clone(), owner.to_vec());
        let parent = tr.current();
        let world = scope.spawn(move || {
            run_spmd_with_stats(RANKS, |comm| {
                comm.set_obs_enabled(program_obs);
                let acceptor = if comm.is_master() {
                    slot.lock().expect("acceptor slot").take()
                } else {
                    None
                };
                tr.adopt(parent, || {
                    tr.span("steering.closed_loop", 0, || {
                        run_closed_loop_opts(
                            geo.clone(),
                            owner.clone(),
                            solver_config(),
                            comm,
                            None,
                            acceptor,
                            &ClosedLoopConfig {
                                max_steps: u64::MAX / 2,
                                image: IMAGE,
                                initial_vis_rate: u32::MAX, // frames only on request
                                steps_per_cycle: 5,
                                gateway: Some(GatewayConfig::default()),
                                ..Default::default()
                            },
                        )
                    })
                })
            })
        });
        let dial = || {
            SteeringClient::new(Box::new(
                connector
                    .connect()
                    .expect("the in-process acceptor is listening"),
            ))
        };
        let driver = dial(); // first to dial drives
        let observer = dial();
        let mut s = Session {
            driver,
            observer,
            world,
            driver_frames: 0,
            observer_frames: 0,
            last_step: 0,
        };
        s.frame(tr, 0, None, tally);
        s
    }

    /// One `RequestFrame → Image` round trip; checks the frame's size.
    fn frame(
        &mut self,
        tr: &Tracer,
        req: u64,
        view: Option<&View>,
        tally: &mut Tally,
    ) -> (ImageFrame, f64) {
        if let Some(v) = view {
            let cmd = SteeringCommand::SetCamera {
                eye: v.eye,
                target: v.target,
                up: [0.0, 0.0, 1.0],
                fov_y: v.fov_y,
            };
            tr.span("steering.send", req, || self.driver.send(&cmd))
                .expect("driver session is attached");
        }
        let t = Instant::now();
        let (img, _) = tr
            .span("steering.request_frame", req, || {
                self.driver.request_frame()
            })
            .expect("driver frame");
        let rtt = t.elapsed().as_secs_f64();
        let (w, h) = IMAGE;
        tally.check(
            img.width == w && img.height == h && img.rgb.len() == (w * h * 3) as usize,
            || {
                format!(
                    "frame {req}: {}x{} with {} bytes, requested {w}x{h}",
                    img.width,
                    img.height,
                    img.rgb.len()
                )
            },
        );
        self.driver_frames += 1;
        self.last_step = img.step;
        tr.span("steering.observer_poll", req, || self.drain_observer(false));
        (img, rtt)
    }

    fn send(&self, tr: &Tracer, req: u64, cmd: SteeringCommand) {
        tr.span("steering.send", req, || self.driver.send(&cmd))
            .expect("driver session is attached");
    }

    /// Count the observer's images: without blocking, or until the
    /// server hangs up.
    fn drain_observer(&mut self, to_end: bool) {
        loop {
            let msg = if to_end {
                self.observer.recv().ok()
            } else {
                self.observer.try_recv().ok().flatten()
            };
            match msg {
                Some(ServerMessage::Image(_) | ServerMessage::ImageSparse(_)) => {
                    self.observer_frames += 1
                }
                Some(_) => {}
                None => return,
            }
        }
    }

    /// Terminate the run, drain both sessions and join the world.
    fn finish(mut self, tally: &mut Tally) -> (World, u64, u64) {
        self.driver
            .send(&SteeringCommand::Terminate)
            .expect("driver session is attached");
        while self.driver.recv().is_ok() {}
        self.drain_observer(true);
        let world = self.world.join().expect("closed-loop world");
        for (rank, r) in world.results.iter().enumerate() {
            tally.check(r.is_ok(), || {
                format!("closed loop failed on rank {rank}: {:?}", r.as_ref().err())
            });
        }
        // Frames the observer did not receive count as failed
        // operations (the observer's frames are attempted operations).
        let lost = self.driver_frames.saturating_sub(self.observer_frames);
        tally.ops(self.driver_frames, lost);
        (world, self.driver_frames, self.observer_frames)
    }
}

/// What one measured phase of driver frames produced.
#[derive(Default)]
struct Played {
    rtts: Vec<f64>,
    wall: f64,
    steps: u64,
}

/// Replay whole script cycles until `len` has passed.
fn play(s: &mut Session, tr: &Tracer, script: &Script, len: Duration, tally: &mut Tally) -> Played {
    let mut p = Played::default();
    let step0 = s.last_step;
    let t0 = Instant::now();
    let mut req = 1;
    while t0.elapsed() < len {
        let mut first_render: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        let mut paused_step = None;
        for step in &script.cycle {
            match step {
                ScriptStep::Live { view, inlet_rho } => {
                    if let Some(rho) = inlet_rho {
                        s.send(
                            tr,
                            req,
                            SteeringCommand::SetInletPressure { id: 0, rho: *rho },
                        );
                    }
                    let (_, rtt) = s.frame(tr, req, Some(view), tally);
                    p.rtts.push(rtt);
                }
                ScriptStep::Pause => s.send(tr, req, SteeringCommand::Pause),
                ScriptStep::Revisit(b) => {
                    let (img, rtt) = s.frame(tr, req, Some(&script.bookmarks[*b]), tally);
                    p.rtts.push(rtt);
                    let at = *paused_step.get_or_insert(img.step);
                    tally.check(img.step == at, || {
                        format!(
                            "paused frame {req} at step {} after pausing at {at}",
                            img.step
                        )
                    });
                    let first = first_render.entry(*b).or_insert_with(|| img.rgb.clone());
                    tally.check(*first == img.rgb, || {
                        format!(
                            "revisit of bookmark {b} (frame {req}) differs from its first render"
                        )
                    });
                }
                ScriptStep::Resume => s.send(tr, req, SteeringCommand::Resume),
            }
            req += 1;
        }
    }
    p.wall = t0.elapsed().as_secs_f64();
    p.steps = s.last_step - step0;
    p
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tr = ctx.tracer;
    let mut out = Outcome::default();
    tr.set_enabled(ctx.trace);
    let path = ctx.workdir.join("steered-insitu.sgmy");
    let bytes = gen::sgmy_bytes(&gen::standard_vessel(gen::STEERED_DX));
    std::fs::write(&path, &bytes).expect("write generated .sgmy");
    let phases = ctx.phases();

    std::thread::scope(|scope| {
        let tally = &mut out.tally;
        // Setup, repeated: read, partition, start the loop, first frame.
        let (mut read_s, mut kway_s, mut setup) = (Vec::new(), Vec::new(), Vec::new());
        let mut prepared = None;
        for rep in 0..SETUP_REPS as u64 {
            let t = Instant::now();
            let geo = Arc::new(tr.span("geometry.read_sgmy", rep, || read_geometry(&path)));
            read_s.push(t.elapsed().as_secs_f64());
            let graph = tr.span("partition.graph", rep, || {
                SiteGraph::from_geometry(&geo, Connectivity::D3Q15)
            });
            let tk = Instant::now();
            let owner = tr.span("partition.kway", rep, || {
                MultilevelKWay::default().partition(&graph, RANKS)
            });
            kway_s.push(tk.elapsed().as_secs_f64());
            let session = Session::start(scope, tr, &geo, &owner, false, tally);
            setup.push(t.elapsed().as_secs_f64());
            Session::finish(session, tally);
            prepared = Some((geo, graph, owner));
        }
        let (geo, graph, owner) = prepared.expect("at least one setup repetition");
        let script = gen::steering_script(ctx.seed, geo.shape());
        std::fs::write(ctx.workdir.join("steering-script.txt"), script.to_text())
            .expect("write generated script");
        let sites = geo.fluid_count() as f64;

        let mut played = Vec::new();
        for (traced, len) in phases {
            tr.set_enabled(traced);
            // A fresh world per phase, so spans and the program's
            // recorder cover exactly the traced one.
            let mut s = Session::start(scope, tr, &geo, &owner, traced, tally);
            let p = play(&mut s, tr, &script, len, tally);
            let peak = peak_rss_mib();
            let (world, driver_frames, observer_frames) = Session::finish(s, tally);
            played.push((traced, p, world, driver_frames, observer_frames, peak));
        }

        let m = &mut out.metrics;
        m.set("setup_s", median(&setup).unwrap_or(0.0), "s");
        m.set("geometry.read_s", median(&read_s).unwrap_or(0.0), "s");
        m.set("geometry.read_bytes", bytes.len() as f64, "bytes");
        m.set("partition.kway_s", median(&kway_s).unwrap_or(0.0), "s");
        let q = quality(&graph, &owner, RANKS);
        m.set("partition.edge_cut", q.edge_cut as f64, "count");
        m.set("partition.imbalance", q.imbalance, "ratio");
        m.set(
            "partition.fragments",
            crate::aneurysm::fragments(&owner) as f64,
            "count",
        );
        let untraced_per_frame = played[0].1.wall / played[0].1.rtts.len() as f64;
        for (traced, p, world, driver_frames, observer_frames, peak) in &played {
            let n = p.rtts.len() as f64;
            if !traced {
                let p50 = percentile(&p.rtts, 0.5).unwrap_or(0.0) * 1e3;
                let p90 = percentile(&p.rtts, 0.9).unwrap_or(0.0) * 1e3;
                m.set("sim_mlups", sites * p.steps as f64 / p.wall / 1e6, "MLUPS");
                m.set("peak_rss_mib", *peak, "MiB");
                m.set("op_p50_ms", p50, "ms");
                m.set("op_p90_ms", p90, "ms");
                m.set("ops_per_s", n / p.wall, "1/s");
                m.set("frame_rtt_p50_ms", p50, "ms");
                m.set("frame_rtt_p90_ms", p90, "ms");
                m.set("frames_per_s", n / p.wall, "1/s");
                m.set("op_samples", n, "count");
                let (hits, misses) = world.results[0]
                    .as_ref()
                    .map_or((0, 0), |o| (o.cache_hits, o.cache_misses));
                m.set(
                    "hit_share",
                    ratio(hits as f64, (hits + misses) as f64),
                    "ratio",
                );
                m.set(
                    "observer_delivery_ratio",
                    ratio(*observer_frames as f64, *driver_frames as f64),
                    "ratio",
                );
                continue;
            }
            let obs = world.merged_obs();
            let master = world.results[0].as_ref().ok();
            let rendered = master.map_or(0, |o| o.frames_rendered) as f64;
            let (hits, misses) = master.map_or((0, 0), |o| (o.cache_hits, o.cache_misses));
            let steps = master.map_or(0, |o| o.steps_done) as f64;
            let ranks = RANKS as f64;
            let comm = world
                .stats
                .iter()
                .fold(CommStats::new(), |a, b| a.merged_with(b));
            let shaded = counter(&obs, "vis.render.samples_shaded") as f64;
            let skipped = counter(&obs, "vis.render.samples_skipped") as f64;
            m.set(
                "obs.trace_overhead_ratio",
                (p.wall / n) / untraced_per_frame,
                "ratio",
            );
            m.set(
                "insitu.render_s",
                ratio(phase_secs(&obs, "vis.render"), ranks * rendered),
                "s",
            );
            m.set(
                "insitu.composite_s",
                ratio(phase_secs(&obs, "vis.composite"), ranks * rendered),
                "s",
            );
            m.set("insitu.samples_shaded", ratio(shaded, rendered), "count");
            m.set(
                "insitu.skip_ratio",
                ratio(skipped, shaded + skipped),
                "ratio",
            );
            m.set(
                "insitu.composite_wire_bytes",
                ratio(counter(&obs, "vis.composite.bytes_wire") as f64, rendered),
                "bytes",
            );
            let per_frame = |secs: f64| ratio(secs, ranks * *driver_frames as f64);
            m.set(
                "steering.sim_step_s",
                per_frame(phase_secs(&obs, "sim.step")),
                "s",
            );
            m.set(
                "steering.broadcast_s",
                per_frame(phase_secs(&obs, "steer.broadcast")),
                "s",
            );
            m.set(
                "steering.ship_s",
                ratio(phase_secs(&obs, "steer.ship"), *driver_frames as f64),
                "s",
            );
            m.set(
                "steering.fanout_bytes",
                ratio(
                    master.map_or(0, |o| o.steering_bytes) as f64,
                    *driver_frames as f64,
                ),
                "bytes",
            );
            m.set(
                "steering.cache_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            );
            m.set(
                "steering.frames_degraded",
                master.map_or(0, |o| o.frames_degraded) as f64,
                "count",
            );
            let per_step = |secs: f64| ratio(secs, ranks * steps);
            m.set("core.step_s", per_step(phase_secs(&obs, "sim.step")), "s");
            m.set(
                "core.collide_s",
                per_step(phase_secs(&obs, "lb.collide") + phase_secs(&obs, "lb.collide-frontier")),
                "s",
            );
            m.set(
                "core.stream_s",
                per_step(phase_secs(&obs, "lb.stream")),
                "s",
            );
            m.set("core.site_updates", sites * steps, "count");
            m.set(
                "core.bytes_moved_computed",
                sites * steps * bytes_per_site_update(&solver_config()),
                "bytes",
            );
            m.set(
                "parallel.halo_msgs",
                ratio(comm.msgs(TagClass::Halo) as f64, steps),
                "count",
            );
            m.set(
                "parallel.halo_bytes",
                ratio(comm.bytes(TagClass::Halo) as f64, steps),
                "bytes",
            );
            m.set(
                "parallel.halo_wait_s",
                per_step(comm.recv_wait_secs(TagClass::Halo)),
                "s",
            );
            m.set(
                "parallel.overlap_efficiency",
                comm.overlap_efficiency(),
                "ratio",
            );
        }
    });
    out
}
