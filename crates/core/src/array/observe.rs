//! Observation: the engine records what its components report.
//!
//! The engine is the one caller of every component, and the only code
//! that records. Each helper here makes one component call and, on a
//! traced run, records the event that the call's result describes, under
//! the component's scope and at the instant its work happened. Events
//! without an explicit instant take the recorder clock, which the event
//! loop keeps on the handler's `now`.

use triplea_fimm::Fimm;
use triplea_flash::{FlashCommand, FlashError, OpKind, OpTiming};
use triplea_ftl::{Ftl, GcWork, LogicalPage};
use triplea_pcie::{Admission, CreditQueue};
use triplea_sim::trace::{Recorder, TraceEventKind, TraceScope};
use triplea_sim::{Nanos, Reservation, SimTime};

use super::Engine;

/// Requests a credit of `q` for `id`, recording a refusal under `scope`
/// with the occupants and waiters the queue holds after it.
pub(super) fn admit(
    rec: &mut Option<Recorder>,
    q: &mut CreditQueue,
    scope: TraceScope,
    id: u32,
) -> Admission {
    let a = q.admit(id as u64);
    if let (Admission::Queued, Some(rec)) = (a, rec) {
        let kind = TraceEventKind::QueueFull {
            occupied: q.occupancy(),
            waiting: q.waiting(),
        };
        rec.emit(scope, kind);
    }
    a
}

/// Issues `cmd` on `fimm` (which sits at `scope`) through `issue`,
/// [`Fimm::begin_op`] or the fault-immune [`Fimm::begin_op_recovery`],
/// and records what the module reports: first the scheduled faults the
/// call fired, then the operation's die reservation or the NAND fault
/// that refused it, under the package's scope. A fault is stamped at
/// `at`, the instant the operation met it.
pub(super) fn flash_op(
    rec: &mut Option<Recorder>,
    fimm: &mut Fimm,
    scope: TraceScope,
    issue: impl FnOnce(&mut Fimm, SimTime, u32, &FlashCommand) -> Result<OpTiming, FlashError>,
    at: SimTime,
    package: u32,
    cmd: &FlashCommand,
) -> Result<OpTiming, FlashError> {
    let fired = fimm.faults_fired();
    let res = issue(fimm, at, package, cmd);
    let Some(rec) = rec else {
        return res;
    };
    let detail = match res {
        Err(FlashError::ModuleFailed) => "dead",
        _ => "slowdown",
    };
    for _ in fired..fimm.faults_fired() {
        let domain = "fimm";
        rec.emit_at(at, scope, TraceEventKind::FaultInjected { domain, detail });
    }
    let scope = scope.unit(package);
    let nand = |detail| TraceEventKind::FaultInjected {
        domain: "nand",
        detail,
    };
    match res {
        Ok(op) => rec.emit_at(
            op.start,
            scope,
            TraceEventKind::FlashStart {
                op: match cmd.kind {
                    OpKind::Read => "read",
                    OpKind::Program => "program",
                    OpKind::Erase => "erase",
                },
                die: cmd.targets[0].die,
                die_wait_ns: op.die_wait,
                dur_ns: op.end - op.start,
            },
        ),
        Err(FlashError::ReadTransient(_)) => rec.emit_at(at, scope, nand("read_transient")),
        Err(FlashError::ProgramFailed(_)) => rec.emit_at(at, scope, nand("prog_fail")),
        Err(FlashError::EraseFailed(_)) => rec.emit_at(at, scope, nand("erase_fail")),
        Err(_) => {}
    }
    res
}

impl Engine {
    /// Records an engine-level event under `scope`. `f` builds the
    /// payload and only runs when a recorder is attached.
    #[inline]
    pub(super) fn emit(&mut self, scope: TraceScope, f: impl FnOnce() -> TraceEventKind) {
        if let Some(rec) = &mut self.recorder {
            rec.emit(scope, f());
        }
    }

    /// Records an event under `scope` at `at`.
    #[inline]
    fn emit_at(&mut self, at: SimTime, scope: TraceScope, f: impl FnOnce() -> TraceEventKind) {
        if let Some(rec) = &mut self.recorder {
            rec.emit_at(at, scope, f());
        }
    }

    /// Samples one FIMM's read backlog into its queue-depth series.
    /// Only records while a recorder is attached, so untraced runs
    /// allocate nothing.
    pub(super) fn sample_qdepth(&mut self, now: SimTime, c: usize, fimm: usize) {
        if self.recorder.is_some() {
            let v = self.clusters[c].pending_read_pages[fimm] as f64;
            self.clusters[c].qdepth[fimm].push(now, v);
        }
    }

    /// Moves `bytes` over cluster `c`'s ONFi bus from `now`; zero bytes
    /// is a command-only cycle.
    pub(super) fn bus_transfer(&mut self, c: usize, now: SimTime, bytes: u64) -> Reservation {
        let r = self.clusters[c].bus.transfer(now, bytes);
        self.emit_at(r.start, TraceScope::cluster(c as u32), || {
            TraceEventKind::BusAcquire {
                wait_ns: r.wait,
                dur_ns: r.end - r.start,
                bytes,
            }
        });
        r
    }

    /// Transmits `bytes` from `at` on a link of switch `s`: its uplink
    /// (`port: None`) or its downlink to `port`, down (away from the
    /// root complex) or up. Returns the reservation and when the packet
    /// arrives at the far end. A replay is visible as the link's replay
    /// count moving.
    pub(super) fn transmit(
        &mut self,
        s: usize,
        port: Option<usize>,
        down: bool,
        at: SimTime,
        bytes: u64,
    ) -> (Reservation, SimTime) {
        let cps = self.cfg.shape.topology.clusters_per_switch;
        let sw = &mut self.switches[s];
        let (duplex, scope) = match port {
            None => (&mut sw.uplink, TraceScope::array().unit(s as u32)),
            Some(p) => (
                &mut sw.downlinks[p],
                TraceScope::cluster(s as u32 * cps + p as u32),
            ),
        };
        let link = if down {
            &mut duplex.down
        } else {
            &mut duplex.up
        };
        let replays = link.replays();
        let r = link.transmit(at, bytes);
        let arrive = link.arrival(r.end);
        let replayed = link.replays() != replays;
        self.emit_at(r.start, scope, || TraceEventKind::LinkTx {
            bytes,
            wait_ns: r.wait,
            dur_ns: r.end - r.start,
            replayed,
        });
        (r, arrive)
    }

    /// Issues `cmd` on FIMM `f` of cluster `c`; see [`flash_op`].
    pub(super) fn flash_op(
        &mut self,
        c: usize,
        f: usize,
        issue: impl FnOnce(&mut Fimm, SimTime, u32, &FlashCommand) -> Result<OpTiming, FlashError>,
        at: SimTime,
        package: u32,
        cmd: &FlashCommand,
    ) -> Result<OpTiming, FlashError> {
        let fimm = &mut self.clusters[c].fimms[f];
        let scope = TraceScope::fimm(c as u32, f as u32);
        flash_op(&mut self.recorder, fimm, scope, issue, at, package, cmd)
    }

    /// Whether FIMM `f` of cluster `c` is dead at `at`, so the caller
    /// skips it; see [`Fimm::refuses_at`]. Records the death at `at` the
    /// first time the module refuses, as [`flash_op`] does when an
    /// issued operation meets it.
    pub(super) fn fimm_refuses(&mut self, c: usize, f: usize, at: SimTime) -> bool {
        let fimm = &mut self.clusters[c].fimms[f];
        let fired = fimm.faults_fired();
        let dead = fimm.refuses_at(at);
        if fimm.faults_fired() != fired {
            self.emit_at(at, TraceScope::fimm(c as u32, f as u32), || {
                TraceEventKind::FaultInjected {
                    domain: "fimm",
                    detail: "dead",
                }
            });
        }
        dead
    }

    /// Touches the translation path for `lpn`; `false` is a
    /// mapping-cache miss.
    pub(super) fn map_access(&mut self, lpn: LogicalPage) -> bool {
        let hit = self.ftl.map_access(lpn);
        if !hit {
            self.emit(TraceScope::array(), || TraceEventKind::MapMiss {
                lpn: lpn.0,
            });
        }
        hit
    }

    /// Picks the GC victim on FIMM `fimm` of cluster `cluster`.
    pub(super) fn gc_pick(&mut self, cluster: u32, fimm: u32) -> Option<GcWork> {
        let id = self.clusters[cluster as usize].id;
        let work = self.ftl.gc_pick(id, fimm)?;
        let valid_pages = work.valid.len() as u32;
        self.emit(TraceScope::fimm(cluster, fimm), || TraceEventKind::GcRun {
            valid_pages,
        });
        Some(work)
    }

    /// Runs one FTL metadata mutation and records the journal checkpoint
    /// it took, if any.
    pub(super) fn journaled<T>(&mut self, f: impl FnOnce(&mut Ftl) -> T) -> T {
        let traced = self
            .recorder
            .as_ref()
            .and_then(|_| self.ftl.journal_stats());
        let Some(before) = traced.map(|js| js.checkpoints) else {
            return f(&mut self.ftl);
        };
        let out = f(&mut self.ftl);
        if let Some(js) = self.ftl.journal_stats() {
            if js.checkpoints != before {
                let records = js.appended;
                self.emit(TraceScope::array(), || TraceEventKind::JournalCheckpoint {
                    records,
                });
            }
        }
        out
    }

    /// Debounced laggard registration of FIMM `fimm` in `cluster`; see
    /// [`AutonomicState::register_laggard_with_cooldown`](crate::autonomic::AutonomicState::register_laggard_with_cooldown).
    pub(super) fn register_laggard(
        &mut self,
        cluster: u32,
        fimm: u32,
        now: SimTime,
        cooldown_ns: Nanos,
    ) -> bool {
        let fired = self
            .auto
            .register_laggard_with_cooldown(cluster, fimm, now, cooldown_ns);
        if fired {
            self.emit(TraceScope::fimm(cluster, fimm), || {
                TraceEventKind::LaggardDetected
            });
        }
        fired
    }

    /// Debounced escalation of `cluster`; see
    /// [`AutonomicState::register_escalation_with_cooldown`](crate::autonomic::AutonomicState::register_escalation_with_cooldown).
    pub(super) fn register_escalation(
        &mut self,
        cluster: u32,
        now: SimTime,
        cooldown_ns: Nanos,
    ) -> bool {
        let fired = self
            .auto
            .register_escalation_with_cooldown(cluster, now, cooldown_ns);
        if fired {
            self.emit(TraceScope::cluster(cluster), || TraceEventKind::Escalation);
        }
        fired
    }
}
