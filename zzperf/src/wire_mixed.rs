//! `wire-mixed`: small circuits sent over `zz_net` loopback to a server
//! backed by a fresh on-disk artifact store. About a quarter of the
//! requests are circuits the server has never seen (store writes), the
//! rest repeat earlier ones (store reads), and about a fifth carry eval
//! seeds.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_core::calib::CalibCache;
use zz_core::persist::CompiledArtifact;
use zz_core::{CompileOptions, DiskStatus, PulseMethod, SchedulerKind};
use zz_net::{
    read_frame, write_frame, Client, ClientError, CompileEnvelope, CompiledEnvelope, Request,
    Response, Server, ServerControl, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use zz_persist::{fnv1a_mix, ArtifactKind, ArtifactStore};
use zz_service::{CompileRequest, EvalSpec, Session, Target};
use zz_topology::Topology;

use crate::checks;
use crate::harness::{output_digest, proc_status_kb, trial_seed, PlanFigures, Rng, Trial};
use crate::trace::{self, Tracer};

/// Seconds of a run one trial stands for on the reference machine (2
/// cores), its share of the run's checks included; a run makes
/// `--seconds / TRIAL_S` trials.
pub const TRIAL_S: f64 = 1.5;

/// Requests per trial.
pub const REQUESTS: usize = 2000;

/// Share of requests (in percent) that bring a never-seen circuit.
const NEW_PERCENT: u64 = 25;
/// Share of requests (in percent) that ask for evaluation.
const EVAL_PERCENT: u64 = 20;

const FAMILIES: [BenchmarkKind; 6] = [
    BenchmarkKind::HiddenShift,
    BenchmarkKind::Qft,
    BenchmarkKind::Qpe,
    BenchmarkKind::Qaoa,
    BenchmarkKind::Ising,
    BenchmarkKind::Grc,
];
const METHODS: [PulseMethod; 2] = [PulseMethod::Gaussian, PulseMethod::Pert];
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::ParSched, SchedulerKind::ZzxSched];

/// The server's device.
pub fn device() -> Topology {
    Topology::grid(2, 3)
}

/// Eval seeds carried by evaluating requests.
pub fn eval_seeds() -> Vec<u64> {
    EvalSpec::paper_default().crosstalk_seeds
}

/// One distinct compile request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    kind: BenchmarkKind,
    qubits: usize,
    circuit_seed: u64,
    method: PulseMethod,
    scheduler: SchedulerKind,
}

impl Spec {
    fn options(&self) -> CompileOptions {
        CompileOptions {
            method: self.method,
            scheduler: self.scheduler,
            ..CompileOptions::default()
        }
    }

    /// The wire envelope (circuit generated here).
    pub fn envelope(&self, eval: bool) -> CompileEnvelope {
        let envelope = CompileEnvelope::new(generate(self.kind, self.qubits, self.circuit_seed))
            .with_options(self.options());
        if eval {
            envelope.with_eval_seeds(eval_seeds())
        } else {
            envelope
        }
    }

    /// The same request for a local session.
    pub fn local_request(&self, eval: bool) -> CompileRequest {
        self.envelope(eval).into_compile_request()
    }
}

/// The request stream: each call yields the next request as an index
/// into the distinct specs seen so far, plus whether it evaluates.
/// Only the small spec list is kept; circuits are generated per request.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    /// Distinct specs in order of first appearance.
    pub specs: Vec<Spec>,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Stream {
            rng: Rng::new(seed, 0x3177e),
            specs: Vec::new(),
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> (usize, bool) {
        let fresh = self.specs.is_empty() || self.rng.next() % 100 < NEW_PERCENT;
        let index = if fresh {
            let spec = Spec {
                kind: FAMILIES[self.rng.below(FAMILIES.len())],
                qubits: 4 + self.rng.below(3),
                circuit_seed: self.rng.next() >> 16,
                method: METHODS[self.rng.below(METHODS.len())],
                scheduler: SCHEDULERS[self.rng.below(SCHEDULERS.len())],
            };
            self.specs.push(spec);
            self.specs.len() - 1
        } else {
            self.rng.below(self.specs.len())
        };
        let eval = self.rng.next() % 100 < EVAL_PERCENT;
        (index, eval)
    }
}

/// A fresh scratch directory for one trial's artifact store, inside the
/// working directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".zzperf_scratch").join(format!("{tag}-{}", std::process::id()))
}

/// A running server over a fresh store and calibration cache.
pub struct Served {
    /// The session behind the server.
    pub session: Arc<Session>,
    /// The server's address.
    pub addr: SocketAddr,
    control: ServerControl,
    serving: JoinHandle<std::io::Result<()>>,
    store_dir: PathBuf,
}

impl Served {
    /// Builds the target, calibrates every method the stream uses, and
    /// binds the server: everything until it is ready to serve.
    pub fn start(store_dir: PathBuf) -> Served {
        let _ = std::fs::remove_dir_all(&store_dir);
        let target = Target::builder()
            .topology(device())
            .calib_cache(Arc::new(CalibCache::new()))
            .store(Arc::new(ArtifactStore::at(&store_dir)))
            .build()
            .expect("the scratch store opens");
        let session = Arc::new(Session::with_threads(target, crate::harness::CALLERS));
        for method in METHODS {
            session.target().calib().residuals(method);
        }
        let server = Server::bind("127.0.0.1:0", Arc::clone(&session)).expect("loopback binds");
        let addr = server.local_addr().expect("bound socket has an address");
        let control = server.control();
        let serving = std::thread::spawn(move || server.serve());
        Served {
            session,
            addr,
            control,
            serving,
            store_dir,
        }
    }

    /// The store directory.
    pub fn store_dir(&self) -> &Path {
        &self.store_dir
    }

    /// Shuts the server down, waits for it, and removes the store.
    pub fn stop(self) -> Vec<String> {
        let mut problems = Vec::new();
        self.control.shutdown();
        match self.serving.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => problems.push(format!("server: {e}")),
            Err(_) => problems.push("server thread panicked".into()),
        }
        drop(self.session);
        let _ = std::fs::remove_dir_all(&self.store_dir);
        problems
    }
}

/// Wire-level tallies of the traced connection.
#[derive(Debug, Default)]
struct NetTally {
    request_bytes: usize,
    response_bytes: usize,
    /// Σ (round trip − server queue − server compile), µs.
    overhead_us: f64,
}

/// The client side of a trial: the public `Client` for the untraced
/// run; raw frames over a socket, with a span around the encode, the
/// round trip and the decode, for the traced run.
enum Conn {
    Client(Client),
    Raw {
        socket: TcpStream,
        tracer: Tracer,
        tally: NetTally,
    },
}

/// Why a request got no compiled reply.
enum Refused {
    Busy,
    Other(String),
}

impl Conn {
    fn compile(
        &mut self,
        request: u64,
        envelope: CompileEnvelope,
    ) -> Result<CompiledEnvelope, Refused> {
        match self {
            Conn::Client(client) => client.compile(envelope).map_err(|e| match e {
                ClientError::Busy => Refused::Busy,
                other => Refused::Other(other.to_string()),
            }),
            Conn::Raw {
                socket,
                tracer,
                tally,
            } => {
                let (reply, round_trip) = tracer.span("request", request, |t| {
                    raw_exchange(t, request, socket, tally, &Request::Compile(envelope))
                })?;
                match reply {
                    Response::Compiled(reply) => {
                        let server_us = (reply.queue_micros + reply.compile_micros) as f64;
                        tally.overhead_us += round_trip.as_secs_f64() * 1e6 - server_us;
                        Ok(*reply)
                    }
                    Response::Busy => Err(Refused::Busy),
                    _ => Err(Refused::Other("unexpected response".into())),
                }
            }
        }
    }
}

/// One request as raw frames: encode into a buffer, send it and read the
/// reply frame's bytes, decode them — each in its own span.
fn raw_exchange(
    t: &mut Tracer,
    request: u64,
    socket: &mut TcpStream,
    tally: &mut NetTally,
    message: &Request,
) -> Result<(Response, Duration), Refused> {
    let io = |e: std::io::Error| Refused::Other(e.to_string());
    let mut bytes = Vec::new();
    t.span("encode", request, |_| {
        write_frame(&mut bytes, ArtifactKind::NetRequest, message)
    })
    .map_err(io)?;
    tally.request_bytes += bytes.len();
    let sent = Instant::now();
    let frame = t
        .span("roundtrip", request, |_| -> std::io::Result<Vec<u8>> {
            socket.write_all(&bytes)?;
            let mut frame = vec![0u8; FRAME_HEADER_LEN];
            socket.read_exact(&mut frame)?;
            let declared = u64::from_le_bytes(frame[12..20].try_into().expect("8 bytes"));
            let len = usize::try_from(declared.min(MAX_FRAME_PAYLOAD)).expect("bounded");
            frame.resize(FRAME_HEADER_LEN + len, 0);
            socket.read_exact(&mut frame[FRAME_HEADER_LEN..])?;
            Ok(frame)
        })
        .map_err(io)?;
    let round_trip = sent.elapsed();
    tally.response_bytes += frame.len();
    let reply = t
        .span("decode", request, |_| {
            read_frame::<Response>(&mut frame.as_slice(), ArtifactKind::NetResponse)
        })
        .map_err(|e| Refused::Other(e.to_string()))?;
    Ok((reply, round_trip))
}

/// One request's outcome as the client saw it, reduced to what the
/// checks and metrics need (holding every reply would inflate the
/// memory figure).
struct Sent {
    key: (usize, bool),
    ms: f64,
    reply: Result<Reply, Refused>,
}

/// The parts of a compiled reply the trial keeps.
struct Reply {
    digest: u64,
    figures: PlanFigures,
    disk_hit: bool,
    queue_us: u64,
    evaluated: bool,
}

impl Reply {
    fn of(reply: &CompiledEnvelope, circuit: u64, spec: &Spec) -> Reply {
        Reply {
            digest: output_digest(&reply.compiled, reply.fidelity),
            figures: PlanFigures::of(&reply.compiled, circuit, spec.scheduler, reply.fidelity),
            disk_hit: reply.disk == DiskStatus::Hit,
            queue_us: reply.queue_micros,
            evaluated: reply.fidelity.is_some(),
        }
    }
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on. Returns whether that took
/// effect; elsewhere than Linux it does nothing.
///
/// With one closed-loop connection, at most one of the client, the
/// server's handler and the session worker is runnable at any moment, so
/// one CPU costs the workload no parallelism. It does remove the
/// cross-CPU wake-up at each of the four hand-offs per request: on the
/// shared reference host, the latency of those wake-ups swung p50 by
/// ±12% between back-to-back runs, against ±3% pinned.
fn pin_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        // A `cpu_set_t`: 1024 CPU bits.
        const WORDS: usize = 16;
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: both calls read or write exactly `size` bytes of
        // `mask`, which is a live, properly aligned `cpu_set_t`-sized
        // buffer; pid 0 names the calling thread.
        unsafe {
            if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
                return false;
            }
            let Some(word) = mask.iter().position(|&w| w != 0) else {
                return false;
            };
            let lowest = mask[word] & mask[word].wrapping_neg();
            let mut one = [0u64; WORDS];
            one[word] = lowest;
            sched_setaffinity(0, size, one.as_ptr()) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// One trial: start a server over a fresh store, send `REQUESTS`
/// requests over one closed-loop connection, then check the responses
/// (against local compiles on the first trial) and read the layer
/// counters. The whole workload runs on one CPU (see
/// [`pin_to_one_cpu`]).
///
/// One connection, because with two on a 2-core machine the client
/// threads, the server's handlers and its session workers outnumber the
/// cores, and preemption stalls of several milliseconds hit both
/// connections at once and set the tail.
pub fn trial(seed: u64, index: usize, traced: bool) -> Trial {
    if !pin_to_one_cpu() && index == 0 {
        eprintln!("zzperf: wire-mixed could not pin itself to one CPU; it runs unpinned");
    }
    let t0 = Instant::now();
    let served = Served::start(scratch_dir(&format!("wire-{index}")));
    let mut conn = if traced {
        let socket = TcpStream::connect(served.addr).expect("loopback connects");
        socket.set_nodelay(true).expect("loopback socket options");
        Conn::Raw {
            socket,
            tracer: Tracer::new(t0),
            tally: NetTally::default(),
        }
    } else {
        Conn::Client(Client::connect(served.addr).expect("loopback connects"))
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let rss_before = proc_status_kb("VmRSS");

    let mut stream = Stream::new(trial_seed(seed, index));
    let start = Instant::now();
    let sent: Vec<Sent> = (0..REQUESTS)
        .map(|i| {
            let key = stream.next_request();
            let spec = stream.specs[key.0];
            let envelope = spec.envelope(key.1);
            let circuit = envelope.circuit.content_digest();
            let t = Instant::now();
            let reply = conn.compile(i as u64, envelope);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            Sent {
                key,
                ms,
                reply: reply.map(|r| Reply::of(&r, circuit, &spec)),
            }
        })
        .collect();
    let wall = start.elapsed();
    let retained_kb = proc_status_kb("VmRSS").saturating_sub(rss_before);

    let mut trial = Trial {
        setup_s,
        wall_s: wall.as_secs_f64(),
        ..Trial::default()
    };
    // Digest of the first response for each (spec, eval) pair; repeats
    // must match it.
    let mut first: HashMap<(usize, bool), u64> = HashMap::new();
    let (mut busy, mut disk_hits, mut queue_us) = (0usize, 0usize, 0.0);
    for r in &sent {
        let (spec, eval) = r.key;
        let outcome = match &r.reply {
            Ok(reply) => {
                trial.digest = fnv1a_mix(trial.digest, reply.digest);
                disk_hits += usize::from(reply.disk_hit);
                queue_us += reply.queue_us as f64;
                let known = *first.entry(r.key).or_insert(reply.digest);
                if known != reply.digest {
                    trial.problems.push(format!(
                        "repeat of spec {spec} differs from its first reply"
                    ));
                    None
                } else if eval != reply.evaluated {
                    trial
                        .problems
                        .push(format!("spec {spec}: eval={eval} mismatch"));
                    None
                } else {
                    trial.figures.push(reply.figures);
                    Some(r.ms)
                }
            }
            Err(Refused::Busy) => {
                busy += 1;
                None
            }
            Err(Refused::Other(e)) => {
                trial.problems.push(format!("spec {spec}: {e}"));
                None
            }
        };
        trial.latency_ms.push(outcome);
    }

    let requests = REQUESTS as f64;
    trial.layer("net.busy", busy as f64);
    trial.layer("store.compiled_hit_frac", disk_hits as f64 / requests);
    trial.layer("service.queue_wait_us", queue_us / requests);
    trial.layer(
        "service.coalesced_frac",
        served.session.coalesced_jobs() as f64 / requests,
    );
    if index == 0 {
        // Later trials reuse memory the first one freed, so only the
        // first shows what the session keeps per request.
        trial.layer("service.retained_kb_per_job", retained_kb as f64 / requests);
    }
    if let Conn::Raw { tracer, tally, .. } = conn {
        trial.spans = Tracer::merge(vec![tracer]);
        let times = trace::self_times(&trial.spans);
        let mean_us = |name: &str| {
            times
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
        };
        trial.layer("net.frame_encode_us", mean_us("encode"));
        trial.layer("net.frame_decode_us", mean_us("decode"));
        trial.layer("net.request_bytes", tally.request_bytes as f64 / requests);
        trial.layer("net.response_bytes", tally.response_bytes as f64 / requests);
        trial.layer("net.roundtrip_overhead_us", tally.overhead_us / requests);
        trial.layer(
            "trace.unattributed_frac",
            trace::unattributed_frac(
                &times,
                &["request"],
                1,
                u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            ),
        );
        trial.layers.extend(store_timings(served.store_dir()));
    }
    trial.problems.extend(served.stop());

    if index == 0 {
        let (bad, problems) = check_against_local(&stream.specs, &first);
        trial.problems.extend(problems);
        for (r, latency) in sent.iter().zip(&mut trial.latency_ms) {
            if bad.contains(&r.key) {
                *latency = None;
            }
        }
    }
    trial
}

/// Times the persist layer on the artifacts a trial left behind: every
/// compiled-plan artifact is read back through `ArtifactStore::get` and
/// written to a second store through `ArtifactStore::put`.
fn store_timings(root: &Path) -> Vec<(&'static str, f64)> {
    let store = ArtifactStore::at(root);
    let copy_root = root.with_extension("copy");
    let copy = ArtifactStore::at(&copy_root);
    let dir = root.join(ArtifactKind::Compiled.dir_name());
    let (mut get, mut put, mut bytes, mut count) = (Duration::ZERO, Duration::ZERO, 0u64, 0u32);
    for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(key) = name
            .to_str()
            .and_then(|n| n.strip_suffix(".zza"))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        else {
            continue;
        };
        let t0 = Instant::now();
        let artifact = store.get::<CompiledArtifact>(ArtifactKind::Compiled, key);
        get += t0.elapsed();
        let Some(artifact) = artifact else { continue };
        let t0 = Instant::now();
        copy.put(ArtifactKind::Compiled, key, &artifact);
        put += t0.elapsed();
        bytes += entry.metadata().map_or(0, |m| m.len());
        count += 1;
    }
    let _ = std::fs::remove_dir_all(&copy_root);
    let n = f64::from(count.max(1));
    vec![
        ("store.get_us", get.as_secs_f64() * 1e6 / n),
        ("store.put_us", put.as_secs_f64() * 1e6 / n),
        ("store.artifact_bytes", bytes as f64 / n),
    ]
}

/// Compiles every distinct request in a fresh local session and compares
/// it with the wire reply, bit for bit; also checks every plan. The plan
/// unitary, the costly part of the checks, is compared once per spec
/// when its plain and evaluated requests compile to the same output.
/// Returns the requests that failed and why.
pub fn check_against_local(
    specs: &[Spec],
    first: &HashMap<(usize, bool), u64>,
) -> (Vec<(usize, bool)>, Vec<String>) {
    let target = Target::builder()
        .topology(device())
        .calib_cache(Arc::new(CalibCache::new()))
        .build()
        .expect("a target without a store builds");
    let session = Session::with_threads(target, 1);
    let (mut bad, mut problems) = (Vec::new(), Vec::new());
    let mut keys: Vec<_> = first.keys().copied().collect();
    keys.sort_unstable();
    // The spec and compiled-output digest whose unitary last passed.
    let mut passed = None;
    for (spec, eval) in keys {
        let request = specs[spec].local_request(eval);
        let mut found = match session.compile(&request) {
            Ok(local) => {
                let output = (spec, output_digest(&local.compiled, None));
                let source = (passed != Some(output)).then_some(&*request.circuit);
                let mut found = checks::plan(&local.compiled, source);
                if found.is_empty() {
                    passed = Some(output);
                }
                if output_digest(&local.compiled, local.fidelity) != first[&(spec, eval)] {
                    found.push("wire reply differs from a local compile".into());
                }
                found
            }
            Err(e) => vec![format!("local compile: {e}")],
        };
        if !found.is_empty() {
            bad.push((spec, eval));
            problems.extend(
                found
                    .drain(..)
                    .map(|p| format!("spec {spec} (eval={eval}): {p}")),
            );
        }
    }
    (bad, problems)
}
