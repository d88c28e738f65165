//! The long-lived forking-server victim and its connection loop.
//!
//! The paper's core threat model (§II) is a server where "a parent process
//! keeps forking out child processes to ... serve new requests sent by
//! external entities", and where a crashed worker is simply replaced by a
//! fresh fork.  [`ForkingServer`] is that victim as a *long-lived* object:
//! it owns the parent VM process for its whole lifetime and serves attacker
//! connections by forking workers from it.  Each [`Connection`] is one
//! forked worker; the worker inherits the parent's TLS byte-for-byte
//! (kernel `fork(2)` semantics) and then the scheme's runtime hook runs, so
//! the stack canaries the worker presents are either *inherited* or
//! *re-randomized* exactly per the scheme's
//! [`ForkCanaryPolicy`].
//!
//! [`ForkCanaryPolicy`]: polycanary_core::scheme::ForkCanaryPolicy
//!
//! That reconnect loop is what the attacks drive: a byte-by-byte guess is
//! one connection carrying one request (a crash is a connection reset, a
//! response confirms the guess), while the canary-reuse attack sends a
//! disclosure and the overflow over a single keep-alive connection.  The
//! server keeps attacker-observable operational counters — connections
//! served, requests handled, workers crashed — which the `server-attack`
//! experiment exports and the test battery pins.
//!
//! # The reused worker
//!
//! The server owns a single worker process, vacant until the first
//! [`ForkingServer::connect`].  Every connection forks into that process
//! ([`Machine::fork_into`]), which makes it exactly the child a fresh fork
//! would be — same pid sequence, TLS, rdrand stream, fork-hook effects and
//! memory — without allocating.  The memory image is the expensive part.
//! A memory segment is either zero or owned, and an owned segment is zero
//! outside the byte range written to it.  The worker's first stack write
//! allocates its stack; from then on a refork zero-fills the range the
//! previous connection wrote and copies the range the parent wrote, if
//! any.  A byte-by-byte request therefore costs the interpreter plus the
//! bytes it writes, not a stack copy.
//!
//! A campaign boots thousands of victims of one configuration, one after
//! another, on each worker thread.  [`ForkingServer::reboot`] boots the
//! next victim into the same server and keeps its worker process, so the
//! worker's stack and I/O buffers are allocated once per campaign worker,
//! not once per victim: the new victim's first fork
//! zero-fills only the range the previous victim's worker wrote, and is
//! still exactly a fresh fork.
//!
//! [`Machine::fork_into`]: polycanary_vm::machine::Machine::fork_into
//!
//! # Example
//!
//! ```
//! use polycanary_attacks::server::{ForkingServer, VictimConfig};
//! use polycanary_core::scheme::{ForkCanaryPolicy, SchemeKind};
//!
//! let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 7));
//! assert_eq!(server.canary_policy(), ForkCanaryPolicy::Inherited);
//!
//! // One keep-alive connection serving two benign requests.
//! let mut conn = server.connect();
//! assert!(conn.send(b"GET / HTTP/1.1").survived());
//! assert!(conn.send(b"GET /again").survived());
//! drop(conn);
//! assert_eq!(server.connections_served(), 1);
//! assert_eq!(server.requests_served(), 2);
//! ```

use polycanary_core::record::Record;
use polycanary_core::scheme::{ForkCanaryPolicy, SchemeKind};
use polycanary_vm::cpu::Exit;
use polycanary_vm::inst::FuncId;
use polycanary_vm::machine::Machine;
use polycanary_vm::process::Process;

use crate::oracle::{OverflowOracle, RequestOutcome};
use crate::snapshot::{VictimKey, VictimSnapshot};
pub use crate::victim::{Deployment, FrameGeometry, VictimConfig, HIJACK_TARGET};

/// A forking worker-per-connection server protected by a configurable
/// scheme.  See the [module docs](self) for the threat model.
pub struct ForkingServer {
    machine: Machine,
    parent: Process,
    /// The worker: vacant until the first `connect`, then re-forked in
    /// place for every connection (see [`ForkingServer::connect`]).
    worker: Process,
    geometry: FrameGeometry,
    config: VictimConfig,
    policy: ForkCanaryPolicy,
    /// Endpoint function ids resolved once at boot, so the per-request path
    /// from fork to first guest instruction does no by-name lookups.
    handle_fn: FuncId,
    leak_fn: FuncId,
    connections: u64,
    requests: u64,
    crashed_workers: u64,
}

impl std::fmt::Debug for ForkingServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkingServer")
            .field("scheme", &self.config.scheme)
            .field("policy", &self.policy)
            .field("connections", &self.connections)
            .field("requests", &self.requests)
            .field("crashed_workers", &self.crashed_workers)
            .finish()
    }
}

impl ForkingServer {
    /// Builds and "boots" the victim server: compiles (or rewrites) the
    /// victim binary, spawns the parent process — whose loader-drawn TLS
    /// canary every worker will inherit — and starts accepting connections.
    ///
    /// This is the from-scratch path; fleet campaigns that boot many
    /// servers of one configuration build the binary once with
    /// [`VictimSnapshot::build`] and boot each server through
    /// [`ForkingServer::from_snapshot`], which is bit-identical.
    pub fn new(config: VictimConfig) -> Self {
        ForkingServer::from_snapshot(&VictimSnapshot::build(VictimKey::of(&config)), config.seed)
    }

    /// Boots a victim server from a pre-built [`VictimSnapshot`], skipping
    /// the compile/rewrite pipeline.  For any seed this is bit-identical to
    /// [`ForkingServer::new`] with the corresponding [`VictimConfig`]: the
    /// parent process is restored from the captured image and the loader's
    /// canary draws, the runtime hooks and all per-process entropy are
    /// re-derived from `seed` exactly as a fresh boot would.
    pub fn from_snapshot(victim: &VictimSnapshot, seed: u64) -> Self {
        let config = victim.key().config_with_seed(seed);
        let runtime_scheme = victim.runtime_scheme();
        let hooks = runtime_scheme.scheme().runtime_hooks(seed ^ 0xA77C_0DE5);
        let mut machine = Machine::from_snapshot(victim.vm_snapshot(), hooks, seed);
        let parent = machine.restore(victim.vm_snapshot());
        let endpoint = |name: &str| {
            machine.program().function_by_name(name).expect("victim binary defines the endpoint")
        };
        let (handle_fn, leak_fn) = (endpoint("handle_request"), endpoint("leak_status"));
        ForkingServer {
            machine,
            parent,
            worker: Process::vacant(),
            geometry: victim.geometry(),
            config,
            policy: runtime_scheme.fork_canary_policy(),
            handle_fn,
            leak_fn,
            connections: 0,
            requests: 0,
            crashed_workers: 0,
        }
    }

    /// Boots the victim `victim` with `seed` into this server: afterwards
    /// the server equals `ForkingServer::from_snapshot(victim, seed)` in
    /// every observable way, but it keeps its worker process.  The first
    /// [`ForkingServer::connect`] then forks into that worker, which
    /// zero-fills only what the previous victim's worker wrote instead of
    /// allocating a fresh stack and I/O buffers.  Whatever state the
    /// previous worker was left in — crashed, or mid keep-alive — the
    /// refork makes it exactly the child a fresh fork would be.
    pub fn reboot(&mut self, victim: &VictimSnapshot, seed: u64) {
        let worker = std::mem::replace(&mut self.worker, Process::vacant());
        *self = ForkingServer::from_snapshot(victim, seed);
        self.worker = worker;
    }

    /// The victim's frame geometry (the attacker derives this from the
    /// binary, which is not secret in the adversary model).
    pub fn geometry(&self) -> FrameGeometry {
        self.geometry
    }

    /// The scheme protecting the victim.
    pub fn scheme(&self) -> SchemeKind {
        self.config.scheme
    }

    /// Whether a freshly forked worker presents the parent's stack canaries
    /// or re-randomized ones — the property that decides the byte-by-byte
    /// attack, derived from the scheme governing the deployed binary.
    pub fn canary_policy(&self) -> ForkCanaryPolicy {
        self.policy
    }

    /// Number of connections accepted (= workers forked) so far.
    pub fn connections_served(&self) -> u64 {
        self.connections
    }

    /// Number of requests handled over all connections so far.
    pub fn requests_served(&self) -> u64 {
        self.requests
    }

    /// Number of workers that crashed (and were replaced) so far.
    pub fn crashed_workers(&self) -> u64 {
        self.crashed_workers
    }

    /// Accepts one attacker connection: the parent forks a worker (TLS
    /// cloned, then the scheme's fork hook runs in the child) and the
    /// connection stays open until a request crashes the worker or the
    /// connection is dropped.  A crashed worker is "replaced" implicitly —
    /// the next `connect` forks a fresh worker from the same parent, which
    /// is exactly the loop the byte-by-byte attack exploits.
    ///
    /// The server keeps one worker process and forks every connection into
    /// it with [`Machine::fork_into`]: the worker is observably a fresh
    /// fork, but the refork copies back only the memory the previous
    /// connection wrote, and allocates nothing.
    pub fn connect(&mut self) -> Connection<'_> {
        self.connections += 1;
        self.machine.fork_into(&mut self.parent, &mut self.worker);
        Connection { server: self, open: true }
    }

    /// Serves one request on a fresh single-request connection — the
    /// reconnect loop of the byte-by-byte and exhaustive attacks, where
    /// every probe is its own connection.
    pub fn serve(&mut self, payload: &[u8]) -> RequestOutcome {
        self.connect().send(payload)
    }

    /// Serves one "status" request against the leaky endpoint on a fresh
    /// connection and returns the bytes the worker wrote back — including,
    /// due to the over-read bug, the canary region of the leaking frame.
    pub fn serve_leak(&mut self, payload: &[u8]) -> (RequestOutcome, Vec<u8>) {
        self.connect().send_leak(payload)
    }

    /// Serves a disclosure request and a follow-up overflow *over one
    /// keep-alive connection* (i.e. in the same worker), modelling the
    /// canary-reuse attacker.  The overflow payload is built by
    /// `build_overflow` from the leaked bytes.  Returns the leaked bytes
    /// and the outcome of the overflow (or of the leak, if it crashed).
    pub fn serve_leak_then_overflow(
        &mut self,
        leak_payload: &[u8],
        build_overflow: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> (Vec<u8>, RequestOutcome) {
        let mut conn = self.connect();
        let (leak_outcome, leaked) = conn.send_leak(leak_payload);
        if leak_outcome != RequestOutcome::Survived {
            return (leaked, leak_outcome);
        }
        let overflow_payload = build_overflow(&leaked);
        let outcome = conn.send(&overflow_payload);
        (leaked, outcome)
    }

    /// The server's operational counters as a self-describing record, for
    /// JSON/CSV export next to the campaign reports.
    pub fn stats_record(&self) -> Record {
        Record::new()
            .field("scheme", self.config.scheme.name())
            .field("deployment", self.config.deployment.label())
            .field("fork_canary_policy", self.policy.label())
            .field("seed", self.config.seed)
            .field("connections", self.connections)
            .field("requests", self.requests)
            .field("crashed_workers", self.crashed_workers)
            .field("forks", self.machine.forks())
    }

    /// Total forks the underlying machine performed — equals
    /// [`ForkingServer::connections_served`] because the server forks
    /// exactly one worker per accepted connection.
    pub fn forked_workers(&self) -> u64 {
        self.machine.forks()
    }

    fn run_in(&mut self, endpoint: FuncId, payload: &[u8]) -> RequestOutcome {
        self.requests += 1;
        self.worker.set_input_from(payload);
        let outcome = self.machine.run_function_id(&mut self.worker, endpoint);
        let classified = classify(outcome.exit);
        if classified != RequestOutcome::Survived {
            self.crashed_workers += 1;
        }
        classified
    }
}

impl OverflowOracle for ForkingServer {
    fn attempt(&mut self, payload: &[u8]) -> RequestOutcome {
        self.serve(payload)
    }

    fn trials(&self) -> u64 {
        self.connections
    }
}

/// One attacker connection: a forked worker serving requests until it
/// crashes (connection reset) or the attacker disconnects (drop).
///
/// The worker was forked when the connection was accepted, so its canaries
/// are frozen for the connection's lifetime under per-fork schemes — which
/// is why the reuse attack works against basic P-SSP over a keep-alive
/// connection — while per-call schemes re-randomize on every request.  The
/// worker is the server's one worker process; the connection borrows the
/// server, so only one connection is open at a time.
#[derive(Debug)]
pub struct Connection<'s> {
    server: &'s mut ForkingServer,
    open: bool,
}

impl Connection<'_> {
    /// Whether the worker behind this connection is still alive.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Sends one request body to the vulnerable `handle_request` endpoint
    /// and reports the worker's fate.  A request on an already-reset
    /// connection is refused as [`RequestOutcome::Crashed`] without
    /// reaching any worker.
    pub fn send(&mut self, payload: &[u8]) -> RequestOutcome {
        if !self.open {
            return RequestOutcome::Crashed;
        }
        let endpoint = self.server.handle_fn;
        let outcome = self.server.run_in(endpoint, payload);
        if outcome != RequestOutcome::Survived {
            self.open = false;
        }
        outcome
    }

    /// Sends one request to the leaky `leak_status` endpoint and returns
    /// the worker's fate plus the over-read bytes it echoed back.
    pub fn send_leak(&mut self, payload: &[u8]) -> (RequestOutcome, Vec<u8>) {
        if !self.open {
            return (RequestOutcome::Crashed, Vec::new());
        }
        let endpoint = self.server.leak_fn;
        let outcome = self.server.run_in(endpoint, payload);
        let leaked = self.server.worker.take_output();
        if outcome != RequestOutcome::Survived {
            self.open = false;
        }
        (outcome, leaked)
    }
}

fn classify(exit: Exit) -> RequestOutcome {
    match exit {
        Exit::Normal(_) => RequestOutcome::Survived,
        Exit::Fault(fault) if fault.is_detection() => RequestOutcome::Detected,
        Exit::Fault(fault) if fault.is_hijack() => RequestOutcome::Hijacked,
        Exit::Fault(_) => RequestOutcome::Crashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_requests_survive_under_every_scheme() {
        for kind in SchemeKind::ALL {
            let mut server = ForkingServer::new(VictimConfig::new(kind, 11));
            assert_eq!(server.serve(b"GET / HTTP/1.1"), RequestOutcome::Survived, "{kind}");
            assert_eq!(server.crashed_workers(), 0);
        }
    }

    #[test]
    fn smashing_requests_are_detected_by_protected_schemes() {
        for kind in SchemeKind::ALL {
            let mut server = ForkingServer::new(VictimConfig::new(kind, 11));
            let payload = vec![0x41u8; server.geometry().full_overwrite_len()];
            let outcome = server.serve(&payload);
            if kind == SchemeKind::Native {
                assert_ne!(outcome, RequestOutcome::Detected);
            } else {
                assert_eq!(outcome, RequestOutcome::Detected, "{kind}");
            }
        }
    }

    #[test]
    fn unprotected_server_is_hijacked_by_a_crafted_payload() {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Native, 11));
        let geom = server.geometry();
        let mut payload = vec![0x41u8; geom.filler_len + geom.canary_region_len + 8];
        payload.extend_from_slice(&HIJACK_TARGET.to_le_bytes());
        assert_eq!(server.serve(&payload), RequestOutcome::Hijacked);
    }

    #[test]
    fn geometry_reflects_the_scheme_layout() {
        let ssp = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 1)).geometry();
        let pssp = ForkingServer::new(VictimConfig::new(SchemeKind::Pssp, 1)).geometry();
        let owf = ForkingServer::new(VictimConfig::new(SchemeKind::PsspOwf, 1)).geometry();
        assert_eq!(ssp.canary_region_len, 8);
        assert_eq!(pssp.canary_region_len, 16);
        assert_eq!(owf.canary_region_len, 24);
        assert!(ssp.full_overwrite_len() < pssp.full_overwrite_len());
    }

    #[test]
    fn rewriter_deployment_keeps_ssp_geometry_and_rerandomizes() {
        let config =
            VictimConfig::new(SchemeKind::PsspBin32, 1).with_deployment(Deployment::BinaryRewriter);
        let server = ForkingServer::new(config);
        assert_eq!(server.geometry().canary_region_len, 8);
        // The policy reflects the scheme governing the *rewritten* binary.
        assert_eq!(server.canary_policy(), ForkCanaryPolicy::Rerandomized);
    }

    #[test]
    fn leak_endpoint_discloses_stack_words() {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 5));
        let (outcome, leaked) = server.serve_leak(b"status");
        assert_eq!(outcome, RequestOutcome::Survived);
        // buffer_size/8 + 3 words were leaked.
        assert_eq!(leaked.len(), (64 / 8 + 3) * 8);
    }

    #[test]
    fn crashed_worker_counter_tracks_detections() {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 5));
        let len = server.geometry().full_overwrite_len();
        let _ = server.serve(&vec![0x41u8; len]);
        let _ = server.serve(b"ok");
        assert_eq!(server.crashed_workers(), 1);
        assert_eq!(server.trials(), 2);
        assert_eq!(server.connections_served(), 2);
        assert_eq!(server.requests_served(), 2);
        assert_eq!(server.forked_workers(), 2);
    }

    #[test]
    fn custom_buffer_size_changes_filler_length() {
        let server =
            ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 5).with_buffer_size(128));
        assert_eq!(server.geometry().filler_len, 128);
    }

    #[test]
    fn keep_alive_connection_serves_many_requests_in_one_worker() {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Pssp, 9));
        let mut conn = server.connect();
        for _ in 0..5 {
            assert_eq!(conn.send(b"ping"), RequestOutcome::Survived);
            assert!(conn.is_open());
        }
        assert_eq!(server.connections_served(), 1, "keep-alive reuses one worker");
        assert_eq!(server.requests_served(), 5);
        assert_eq!(server.forked_workers(), 1);
    }

    #[test]
    fn crashed_connection_is_reset_and_refuses_further_requests() {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 9));
        let smash = vec![0x41u8; 64 + 8 + 8 + 8];
        let mut conn = server.connect();
        assert_eq!(conn.send(&smash), RequestOutcome::Detected);
        assert!(!conn.is_open());
        // The worker is gone; the attacker only sees resets from now on.
        assert_eq!(conn.send(b"hello?"), RequestOutcome::Crashed);
        assert_eq!(conn.send_leak(b"status").0, RequestOutcome::Crashed);
        // The refused requests never reached a worker.
        assert_eq!(server.requests_served(), 1);
        assert_eq!(server.crashed_workers(), 1);
        // The parent is unharmed: the next connection serves normally.
        assert_eq!(server.serve(b"ok"), RequestOutcome::Survived);
    }

    #[test]
    fn static_canary_workers_inherit_identical_canaries_across_connections() {
        // The root cause of the byte-by-byte attack, observed through the
        // reconnect loop itself: under SSP, the canary region a worker
        // accepts is identical on every connection (it is the parent's),
        // while under P-SSP two connections never agree.
        let leak_canary = |server: &mut ForkingServer| -> Vec<u8> {
            let geom = server.geometry();
            let (outcome, leaked) = server.serve_leak(b"status");
            assert_eq!(outcome, RequestOutcome::Survived);
            leaked[geom.filler_len..geom.filler_len + geom.canary_region_len].to_vec()
        };
        let mut ssp = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 21));
        assert_eq!(leak_canary(&mut ssp), leak_canary(&mut ssp), "SSP inherits");
        let mut pssp = ForkingServer::new(VictimConfig::new(SchemeKind::Pssp, 21));
        assert_ne!(leak_canary(&mut pssp), leak_canary(&mut pssp), "P-SSP re-randomizes");
        assert_eq!(ssp.canary_policy(), ForkCanaryPolicy::Inherited);
        assert_eq!(pssp.canary_policy(), ForkCanaryPolicy::Rerandomized);
    }

    #[test]
    fn stats_record_reports_the_operational_counters() {
        use polycanary_core::record::Value;

        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 3));
        let _ = server.serve(b"a");
        let mut conn = server.connect();
        let _ = conn.send(b"b");
        let _ = conn.send(b"c");
        let rec = server.stats_record();
        assert_eq!(rec.get("scheme"), Some(&Value::Str("SSP".into())));
        assert_eq!(rec.get("fork_canary_policy"), Some(&Value::Str("inherited".into())));
        assert_eq!(rec.get("connections"), Some(&Value::UInt(2)));
        assert_eq!(rec.get("requests"), Some(&Value::UInt(3)));
        assert_eq!(rec.get("forks"), Some(&Value::UInt(2)));
    }
}
