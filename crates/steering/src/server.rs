//! The steering server state machine (lives on the master rank).

use crate::protocol::{FieldChoice, ImageFrame, ServerMessage, StatusReport, SteeringCommand};
use crate::transport::{Acceptor, Transport};
use hemelb_parallel::Wire;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// Steering-relevant state, replicated on every rank by broadcasting
/// the command stream (so the whole SPMD job stays consistent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteeringState {
    /// Camera eye.
    pub eye: [f64; 3],
    /// Camera target.
    pub target: [f64; 3],
    /// Camera up hint.
    pub up: [f64; 3],
    /// Vertical FOV (radians).
    pub fov_y: f64,
    /// Displayed field.
    pub field: FieldChoice,
    /// Render every this many steps.
    pub vis_rate: u32,
    /// Optional region of interest (lattice cells).
    pub roi: Option<([u32; 3], [u32; 3])>,
    /// Whether stepping is paused.
    pub paused: bool,
    /// Whether a frame was explicitly requested.
    pub frame_requested: bool,
    /// Whether an observable extraction was requested.
    pub observables_requested: bool,
    /// Whether termination was requested.
    pub terminate: bool,
    /// Pending inlet-pressure changes `(id, rho)`.
    pub pressure_changes: Vec<(u32, f64)>,
    /// Client override for adaptive load balancing: `None` until a
    /// client sends [`SteeringCommand::SetAdaptiveLb`], then the last
    /// value sent. The closed loop combines this with its configured
    /// default (`ClosedLoopConfig::adaptive_lb`).
    pub adaptive_lb_override: Option<bool>,
    /// Domain shape in lattice cells; ROIs are validated against it.
    pub domain: [u32; 3],
    /// Number of inlets in the geometry; inlet-pressure commands are
    /// validated against it.
    pub inlets: u32,
    /// Notices about rejected commands, drained into the next status
    /// report's `problems` list.
    pub rejections: Vec<String>,
}

impl SteeringState {
    /// Defaults: camera along −y, speed field, render every 50 steps.
    /// `inlets` is the geometry's inlet count.
    pub fn new(domain_shape: [usize; 3], inlets: usize) -> Self {
        let c = [
            domain_shape[0] as f64 / 2.0,
            domain_shape[1] as f64 / 2.0,
            domain_shape[2] as f64 / 2.0,
        ];
        let radius = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
        SteeringState {
            eye: [c[0], c[1] - 3.0 * radius, c[2]],
            target: c,
            up: [0.0, 0.0, 1.0],
            fov_y: 45f64.to_radians(),
            field: FieldChoice::Speed,
            vis_rate: 50,
            roi: None,
            paused: false,
            frame_requested: false,
            observables_requested: false,
            terminate: false,
            pressure_changes: Vec::new(),
            adaptive_lb_override: None,
            domain: [
                domain_shape[0] as u32,
                domain_shape[1] as u32,
                domain_shape[2] as u32,
            ],
            inlets: inlets as u32,
            rejections: Vec::new(),
        }
    }

    /// Apply one command.
    pub fn apply(&mut self, cmd: &SteeringCommand) {
        match cmd {
            SteeringCommand::SetCamera {
                eye,
                target,
                up,
                fov_y,
            } => {
                self.eye = *eye;
                self.target = *target;
                self.up = *up;
                self.fov_y = *fov_y;
            }
            SteeringCommand::SetField(f) => self.field = *f,
            SteeringCommand::SetVisRate(n) => self.vis_rate = (*n).max(1),
            SteeringCommand::SetRoi { lo, hi } => {
                // Clamp to the domain, then reject empty or inverted
                // boxes instead of silently analysing nothing. The old
                // behaviour accepted any box verbatim, so an ROI past
                // the domain (or with lo ≥ hi) produced zero-site
                // observables with no indication why.
                let lo = [
                    lo[0].min(self.domain[0]),
                    lo[1].min(self.domain[1]),
                    lo[2].min(self.domain[2]),
                ];
                let hi = [
                    hi[0].min(self.domain[0]),
                    hi[1].min(self.domain[1]),
                    hi[2].min(self.domain[2]),
                ];
                if (0..3).all(|a| lo[a] < hi[a]) {
                    self.roi = Some((lo, hi));
                } else {
                    self.rejections.push(format!(
                        "rejected ROI {lo:?}..{hi:?}: empty or inverted after clamping \
                         to domain {:?}; keeping {:?}",
                        self.domain, self.roi
                    ));
                }
            }
            SteeringCommand::SetInletPressure { id, rho } => {
                // An unknown id would grow the solver's BC list to `id`
                // entries, and a non-finite or non-positive density
                // poisons the whole field, so neither reaches the solver.
                if *id >= self.inlets {
                    self.rejections.push(format!(
                        "rejected inlet pressure for inlet {id}: the geometry has {} inlet(s)",
                        self.inlets
                    ));
                } else if !(rho.is_finite() && *rho > 0.0) {
                    self.rejections.push(format!(
                        "rejected inlet pressure {rho} for inlet {id}: density must be \
                         finite and positive"
                    ));
                } else {
                    self.pressure_changes.push((*id, *rho));
                }
            }
            SteeringCommand::Pause => self.paused = true,
            SteeringCommand::Resume => self.paused = false,
            SteeringCommand::RequestFrame => self.frame_requested = true,
            SteeringCommand::RequestObservables => self.observables_requested = true,
            SteeringCommand::SetAdaptiveLb(on) => self.adaptive_lb_override = Some(*on),
            SteeringCommand::Terminate => self.terminate = true,
            // Session arbitration, not simulation state: the gateway
            // consumes this before commands reach the replicated state,
            // and a single-client server has no driver role to release.
            SteeringCommand::ReleaseDriver => {}
        }
    }

    /// Drain and return pending pressure changes.
    pub fn take_pressure_changes(&mut self) -> Vec<(u32, f64)> {
        std::mem::take(&mut self.pressure_changes)
    }

    /// Drain and return pending rejection notices (reported to the
    /// client via the next status report's `problems`).
    pub fn take_rejections(&mut self) -> Vec<String> {
        std::mem::take(&mut self.rejections)
    }
}

/// What the master does when the steering client vanishes (or sends
/// garbage) mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientLossPolicy {
    /// Treat the loss as a terminate request — the historical default:
    /// an interactive session without its human stops.
    #[default]
    Terminate,
    /// Keep simulating headless. With an [`Acceptor`] configured, a new
    /// client can attach later and resume steering where the old one
    /// left off.
    Headless,
}

/// The master-rank endpoint: drains client commands, ships results.
///
/// The transport slot may be empty (headless): sends become no-ops and
/// [`SteeringServer::poll_commands`] polls the acceptor, if any, for a
/// client (re-)attaching to the running simulation.
pub struct SteeringServer {
    transport: RefCell<Option<Box<dyn Transport>>>,
    acceptor: Option<Box<dyn Acceptor>>,
    loss_policy: ClientLossPolicy,
    /// Bytes sent over transports that have since been dropped.
    bytes_retired: Cell<u64>,
    /// Times a client attached via the acceptor.
    attach_count: Cell<u64>,
    /// Human-readable connection events (attach/loss), drained into
    /// status reports by the closed loop.
    events: RefCell<Vec<String>>,
    /// Commands drained off a dying transport at detach time, returned
    /// by the next [`SteeringServer::poll_commands`]. Before this
    /// existed, anything the client sent between the loss being noticed
    /// (often via a failed send) and the transport being dropped was
    /// silently lost.
    salvaged: RefCell<Vec<SteeringCommand>>,
}

impl SteeringServer {
    /// Wrap a connected transport. Client loss terminates the run (the
    /// historical behaviour); there is no acceptor to re-attach through.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        Self::with_policy(Some(transport), None, ClientLossPolicy::Terminate)
    }

    /// Full wiring: an optionally already-connected client, an optional
    /// acceptor for (re-)attachment, and the loss policy.
    pub fn with_policy(
        transport: Option<Box<dyn Transport>>,
        acceptor: Option<Box<dyn Acceptor>>,
        loss_policy: ClientLossPolicy,
    ) -> Self {
        SteeringServer {
            attach_count: Cell::new(transport.is_some() as u64),
            transport: RefCell::new(transport),
            acceptor,
            loss_policy,
            bytes_retired: Cell::new(0),
            events: RefCell::new(Vec::new()),
            salvaged: RefCell::new(Vec::new()),
        }
    }

    /// Headless from the start: simulate with no client, let one attach
    /// through `acceptor` whenever it likes.
    pub fn headless(acceptor: Box<dyn Acceptor>) -> Self {
        Self::with_policy(None, Some(acceptor), ClientLossPolicy::Headless)
    }

    /// Whether a client is currently attached.
    pub fn is_attached(&self) -> bool {
        self.transport.borrow().is_some()
    }

    /// How many times a client has attached (initial connection
    /// included).
    pub fn attach_count(&self) -> u64 {
        self.attach_count.get()
    }

    /// Drain pending connection events (client attached / client lost).
    pub fn take_events(&self) -> Vec<String> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Drop the current client connection, accounting its bytes.
    ///
    /// Before dropping the transport, drain any commands still queued
    /// on it: a loss is usually noticed on a *send* (e.g. a failed
    /// image ship), at which point the client may have decodable
    /// commands in flight that would otherwise vanish with the
    /// transport. Salvaged commands are returned by the next
    /// [`SteeringServer::poll_commands`]; undecodable leftovers are
    /// rejected explicitly. Both outcomes are surfaced in the loss
    /// event so `take_events()` / `StatusReport.problems` show what
    /// happened instead of losing commands silently.
    fn detach(&self, why: &str) {
        if let Some(old) = self.transport.borrow_mut().take() {
            let mut salvaged = 0usize;
            let mut rejected = 0usize;
            while let Ok(Some(frame)) = old.try_recv_frame() {
                match SteeringCommand::from_bytes(frame) {
                    Ok(cmd) => {
                        self.salvaged.borrow_mut().push(cmd);
                        salvaged += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
            self.bytes_retired
                .set(self.bytes_retired.get() + old.bytes_sent());
            let mut event = format!("steering client lost: {why}");
            if salvaged > 0 || rejected > 0 {
                event.push_str(&format!(
                    " (salvaged {salvaged} queued command(s), rejected {rejected} undecodable)"
                ));
            }
            self.events.borrow_mut().push(event);
        }
    }

    /// React to a dead or garbling client per the loss policy.
    fn on_client_loss(&self, why: &str, out: &mut Vec<SteeringCommand>) {
        match self.loss_policy {
            ClientLossPolicy::Terminate => out.push(SteeringCommand::Terminate),
            ClientLossPolicy::Headless => self.detach(why),
        }
    }

    /// Drain all commands currently queued by the client. A transport
    /// error (client gone) follows the loss policy: terminate (default)
    /// or detach and keep simulating headless. While detached, the
    /// acceptor (if any) is polled so a new client can take over.
    pub fn poll_commands(&self) -> Vec<SteeringCommand> {
        if self.transport.borrow().is_none() {
            if let Some(acceptor) = &self.acceptor {
                if let Ok(Some(t)) = acceptor.try_accept() {
                    *self.transport.borrow_mut() = Some(t);
                    self.attach_count.set(self.attach_count.get() + 1);
                    self.events
                        .borrow_mut()
                        .push("steering client attached".into());
                }
            }
        }
        // Commands salvaged off a dying transport come first: they were
        // sent before anything the current transport holds.
        let mut out = std::mem::take(&mut *self.salvaged.borrow_mut());
        loop {
            let polled = match self.transport.borrow().as_deref() {
                None => return out,
                Some(t) => t.try_recv_frame(),
            };
            match polled {
                Ok(Some(frame)) => match SteeringCommand::from_bytes(frame) {
                    Ok(cmd) => out.push(cmd),
                    Err(e) => {
                        self.on_client_loss(&format!("undecodable command: {e}"), &mut out);
                        break;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    self.on_client_loss(&e.to_string(), &mut out);
                    break;
                }
            }
        }
        out
    }

    /// Ship one message; a send failure means the client is gone, which
    /// under the headless policy detaches it (the next poll may accept
    /// a replacement). Under the terminate policy errors are ignored —
    /// a vanished client must not kill the run mid-collective; the next
    /// poll sees the disconnect.
    fn ship(&self, msg: ServerMessage) {
        let result = match self.transport.borrow().as_deref() {
            None => return,
            Some(t) => t.send_frame(msg.to_bytes()),
        };
        if let Err(e) = result {
            if self.loss_policy == ClientLossPolicy::Headless {
                self.detach(&e.to_string());
            }
        }
    }

    /// Send a status report.
    pub fn send_status(&self, status: StatusReport) {
        self.ship(ServerMessage::Status(status));
    }

    /// Send an image frame.
    pub fn send_image(&self, image: ImageFrame) {
        self.ship(ServerMessage::Image(image));
    }

    /// Send an observable report.
    pub fn send_observables(&self, report: crate::protocol::ObservableReport) {
        self.ship(ServerMessage::Observables(report));
    }

    /// Steering bytes sent so far, across all client connections.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_retired.get()
            + self
                .transport
                .borrow()
                .as_ref()
                .map_or(0, |t| t.bytes_sent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex_pair;

    #[test]
    fn state_applies_commands() {
        let mut st = SteeringState::new([32, 16, 16], 1);
        assert!(!st.paused);
        st.apply(&SteeringCommand::Pause);
        assert!(st.paused);
        st.apply(&SteeringCommand::Resume);
        assert!(!st.paused);
        st.apply(&SteeringCommand::SetVisRate(0));
        assert_eq!(st.vis_rate, 1, "vis rate clamps to 1");
        st.apply(&SteeringCommand::SetField(FieldChoice::Density));
        assert_eq!(st.field, FieldChoice::Density);
        st.apply(&SteeringCommand::SetInletPressure { id: 0, rho: 1.03 });
        assert_eq!(st.take_pressure_changes(), vec![(0, 1.03)]);
        assert!(st.take_pressure_changes().is_empty(), "drained");
        st.apply(&SteeringCommand::Terminate);
        assert!(st.terminate);
    }

    #[test]
    fn invalid_inlet_pressure_is_rejected_and_reported() {
        let mut st = SteeringState::new([32, 16, 16], 2);
        st.apply(&SteeringCommand::SetInletPressure { id: 1, rho: 1.02 });
        st.apply(&SteeringCommand::SetInletPressure {
            id: u32::MAX,
            rho: 1.02,
        });
        st.apply(&SteeringCommand::SetInletPressure { id: 2, rho: 1.02 });
        for rho in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            st.apply(&SteeringCommand::SetInletPressure { id: 0, rho });
        }
        assert_eq!(st.take_pressure_changes(), vec![(1, 1.02)]);
        let rejections = st.take_rejections();
        assert_eq!(rejections.len(), 6, "{rejections:?}");
        assert!(
            rejections[0].contains("inlet 4294967295"),
            "{}",
            rejections[0]
        );
        assert!(rejections[1].contains("2 inlet(s)"), "{}", rejections[1]);
        for r in &rejections[2..] {
            assert!(r.contains("finite and positive"), "{r}");
        }
    }

    #[test]
    fn valid_roi_is_accepted_and_clamped() {
        let mut st = SteeringState::new([32, 16, 16], 1);
        st.apply(&SteeringCommand::SetRoi {
            lo: [0, 0, 0],
            hi: [16, 16, 16],
        });
        assert_eq!(st.roi, Some(([0, 0, 0], [16, 16, 16])));
        assert!(st.take_rejections().is_empty());
        // A box poking past the domain is clamped, not rejected.
        st.apply(&SteeringCommand::SetRoi {
            lo: [8, 0, 0],
            hi: [1000, 1000, 1000],
        });
        assert_eq!(st.roi, Some(([8, 0, 0], [32, 16, 16])));
        assert!(st.take_rejections().is_empty());
    }

    #[test]
    fn inverted_or_empty_roi_is_rejected_and_reported() {
        let mut st = SteeringState::new([32, 16, 16], 1);
        let good = ([0, 0, 0], [8, 8, 8]);
        st.apply(&SteeringCommand::SetRoi {
            lo: good.0,
            hi: good.1,
        });
        // Inverted: lo > hi on the x axis.
        st.apply(&SteeringCommand::SetRoi {
            lo: [10, 0, 0],
            hi: [5, 16, 16],
        });
        assert_eq!(st.roi, Some(good), "previous valid ROI survives");
        // Empty: lo == hi.
        st.apply(&SteeringCommand::SetRoi {
            lo: [4, 4, 4],
            hi: [4, 8, 8],
        });
        // Entirely outside: clamping makes it empty.
        st.apply(&SteeringCommand::SetRoi {
            lo: [100, 0, 0],
            hi: [200, 16, 16],
        });
        assert_eq!(st.roi, Some(good));
        let rejections = st.take_rejections();
        assert_eq!(rejections.len(), 3);
        for r in &rejections {
            assert!(r.contains("rejected ROI"), "{r}");
        }
        assert!(st.take_rejections().is_empty(), "drained");
    }

    #[test]
    fn server_drains_queued_commands_in_order() {
        let (client_end, server_end) = duplex_pair();
        let server = SteeringServer::new(Box::new(server_end));
        client_end
            .send_frame(SteeringCommand::Pause.to_bytes())
            .unwrap();
        client_end
            .send_frame(SteeringCommand::SetVisRate(10).to_bytes())
            .unwrap();
        let cmds = server.poll_commands();
        assert_eq!(
            cmds,
            vec![SteeringCommand::Pause, SteeringCommand::SetVisRate(10)]
        );
        assert!(server.poll_commands().is_empty());
    }

    #[test]
    fn dead_client_becomes_terminate() {
        let (client_end, server_end) = duplex_pair();
        let server = SteeringServer::new(Box::new(server_end));
        drop(client_end);
        let cmds = server.poll_commands();
        assert_eq!(cmds, vec![SteeringCommand::Terminate]);
    }

    #[test]
    fn headless_server_survives_loss_and_reattach() {
        use crate::transport::duplex_listener;
        let (connector, acceptor) = duplex_listener();
        let server = SteeringServer::headless(Box::new(acceptor));
        assert!(!server.is_attached());
        assert!(server.poll_commands().is_empty(), "no client yet");
        server.send_status(StatusReport {
            step: 0,
            mass: 1.0,
            max_speed: 0.0,
            residual: 0.0,
            problems: vec![],
            eta_steps: 10,
            paused: false,
            rebalances: 0,
            lb_imbalance: 1.0,
            sessions: 0,
            cache_hits: 0,
            cache_misses: 0,
        }); // no-op while detached

        // First client attaches and steers.
        let c1 = connector.connect().unwrap();
        c1.send_frame(SteeringCommand::Pause.to_bytes()).unwrap();
        assert_eq!(server.poll_commands(), vec![SteeringCommand::Pause]);
        assert!(server.is_attached());
        assert_eq!(server.attach_count(), 1);
        let sent_to_c1 = {
            server.send_image(ImageFrame {
                step: 1,
                width: 1,
                height: 1,
                rgb: vec![0, 0, 0],
            });
            server.bytes_sent()
        };
        assert!(sent_to_c1 > 0);

        // It dies: the run goes headless instead of terminating.
        drop(c1);
        assert!(server.poll_commands().is_empty(), "no Terminate injected");
        assert!(!server.is_attached());

        // A second client takes over; byte accounting spans both.
        let c2 = connector.connect().unwrap();
        c2.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        assert_eq!(server.poll_commands(), vec![SteeringCommand::Resume]);
        assert_eq!(server.attach_count(), 2);
        server.send_image(ImageFrame {
            step: 2,
            width: 1,
            height: 1,
            rgb: vec![0, 0, 0],
        });
        assert!(server.bytes_sent() > sent_to_c1);

        let events = server.take_events();
        assert_eq!(events.len(), 3, "attach, loss, attach: {events:?}");
        assert!(events[0].contains("attached"));
        assert!(events[1].contains("lost"));
        assert!(server.take_events().is_empty(), "drained");
    }

    #[test]
    fn send_failure_detaches_headless_client() {
        use crate::transport::duplex_listener;
        let (connector, acceptor) = duplex_listener();
        let server = SteeringServer::headless(Box::new(acceptor));
        let c1 = connector.connect().unwrap();
        while !server.is_attached() {
            server.poll_commands();
        }
        drop(c1);
        server.send_status(StatusReport {
            step: 0,
            mass: 1.0,
            max_speed: 0.0,
            residual: 0.0,
            problems: vec![],
            eta_steps: 10,
            paused: false,
            rebalances: 0,
            lb_imbalance: 1.0,
            sessions: 1,
            cache_hits: 0,
            cache_misses: 0,
        });
        assert!(!server.is_attached(), "failed send detaches the client");
        assert!(server.take_events().iter().any(|e| e.contains("lost")));
    }

    #[test]
    fn commands_in_flight_at_detach_are_salvaged_not_dropped() {
        use crate::transport::duplex_listener;
        let (connector, acceptor) = duplex_listener();
        let server = SteeringServer::headless(Box::new(acceptor));
        let c1 = connector.connect().unwrap();
        while !server.is_attached() {
            server.poll_commands();
        }
        // The client sends commands, then vanishes before the server
        // polls them; the server notices the loss on a failed *send*.
        c1.send_frame(SteeringCommand::Pause.to_bytes()).unwrap();
        c1.send_frame(SteeringCommand::SetVisRate(7).to_bytes())
            .unwrap();
        drop(c1);
        server.send_status(StatusReport {
            step: 3,
            mass: 1.0,
            max_speed: 0.0,
            residual: 0.0,
            problems: vec![],
            eta_steps: 10,
            paused: false,
            rebalances: 0,
            lb_imbalance: 1.0,
            sessions: 1,
            cache_hits: 0,
            cache_misses: 0,
        });
        assert!(!server.is_attached(), "failed send detaches the client");
        // The detach→re-attach window used to drop these on the floor.
        assert_eq!(
            server.poll_commands(),
            vec![SteeringCommand::Pause, SteeringCommand::SetVisRate(7)]
        );
        let events = server.take_events();
        assert!(
            events.iter().any(|e| e.contains("salvaged 2")),
            "salvage is surfaced in events: {events:?}"
        );
    }

    #[test]
    fn undecodable_leftovers_at_detach_are_rejected_explicitly() {
        use crate::transport::duplex_listener;
        let (connector, acceptor) = duplex_listener();
        let server = SteeringServer::headless(Box::new(acceptor));
        let c1 = connector.connect().unwrap();
        while !server.is_attached() {
            server.poll_commands();
        }
        c1.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        c1.send_frame(bytes::Bytes::from_static(&[250, 9, 9]))
            .unwrap();
        drop(c1);
        server.send_status(StatusReport {
            step: 0,
            mass: 1.0,
            max_speed: 0.0,
            residual: 0.0,
            problems: vec![],
            eta_steps: 1,
            paused: false,
            rebalances: 0,
            lb_imbalance: 1.0,
            sessions: 1,
            cache_hits: 0,
            cache_misses: 0,
        });
        assert_eq!(server.poll_commands(), vec![SteeringCommand::Resume]);
        let events = server.take_events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("salvaged 1") && e.contains("rejected 1")),
            "{events:?}"
        );
    }

    #[test]
    fn garbage_frame_becomes_terminate() {
        let (client_end, server_end) = duplex_pair();
        let server = SteeringServer::new(Box::new(server_end));
        client_end
            .send_frame(bytes::Bytes::from_static(&[250, 1, 2]))
            .unwrap();
        assert_eq!(server.poll_commands(), vec![SteeringCommand::Terminate]);
    }
}
