//! The closed-loop client: `CLIENTS` threads, each with one connection in
//! flight, dialing the gateway over the real `GatewayMsg` protocol and
//! waiting for the `Bye` verdict before dialing again.

use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use proverguard_attest::gateway::GatewayMsg;
use proverguard_attest::prover::CostBreakdown;
use proverguard_transport::{
    LinkStats, LoopbackConnector, MemTransport, Transport, TransportError,
};

use crate::fleet::{Device, Inputs, CLIENTS, IO_TIMEOUT_MS};
use crate::responder::Responder;
use crate::trace::{Span, Tracer};

/// How one dial ended, from the client's side.
#[derive(Debug, Clone, Copy)]
pub struct Dial {
    /// The gateway's `Bye` said verified.
    pub verified: bool,
    /// Device cost of the dial, for real provers.
    pub cost: Option<CostBreakdown>,
}

/// Runs one gateway session for `device` over `conn`: the library's
/// [`proverguard_attest::ProverAgent`] for real provers, the blocking
/// one-shot exchange below for responders.
pub fn dial_once(
    device: &mut Device,
    id: u64,
    conn: &mut dyn Transport,
    timeout: Duration,
) -> Dial {
    match device {
        Device::Agent(agent) => {
            let verified = agent.run_session(conn, timeout).is_verified();
            Dial {
                verified,
                cost: verified.then(|| *agent.prover().last_cost()),
            }
        }
        Device::Responder(responder) => Dial {
            verified: responder_session(responder, id, conn, timeout).unwrap_or(false),
            cost: None,
        },
    }
}

/// The one-shot protocol from the device side with blocking transport
/// calls: `Hello`, answer each `AttReq`, return the `Bye` verdict.
fn responder_session(
    responder: &Responder,
    id: u64,
    conn: &mut dyn Transport,
    timeout: Duration,
) -> Result<bool, TransportError> {
    conn.set_deadline(Some(timeout))?;
    conn.send(&GatewayMsg::Hello { device_id: id }.encode())?;
    loop {
        match GatewayMsg::decode(&conn.recv()?) {
            Ok(GatewayMsg::AttReq(raw)) => {
                let reply = match responder.respond(&raw) {
                    Ok(response) => GatewayMsg::AttResp(response),
                    Err(reason) => GatewayMsg::Reject(reason),
                };
                conn.send(&reply.encode())?;
            }
            Ok(GatewayMsg::Bye { verified }) => return Ok(verified),
            _ => return Ok(false),
        }
    }
}

/// A transport that records a span around every `send` and `recv`.
struct TracedConn<'a> {
    inner: MemTransport,
    tracer: &'a mut Tracer,
}

impl Transport for TracedConn<'_> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.tracer.begin("wire.send");
        let out = self.inner.send(payload);
        self.tracer.end();
        out
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.tracer.begin("wire.recv");
        let out = self.inner.recv();
        self.tracer.end();
        out
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_deadline(deadline)
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// One completed dial of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Dial to `Bye`, host ns.
    pub latency_ns: u64,
    /// When the `Bye` arrived, host ns since the loop started.
    pub done_ns: u64,
    /// The dial's verdict and device cost.
    pub dial: Dial,
    /// Frames sent plus received by the client.
    pub frames: u64,
    /// Framed bytes sent plus received by the client.
    pub bytes: u64,
}

/// Everything one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Completed dials, in per-thread order.
    pub ops: Vec<OpRecord>,
    /// Dials that could not even connect.
    pub connect_failures: u64,
    /// Loop start to last thread end.
    pub wall: Duration,
    /// Spans of every traced thread (empty when untraced).
    pub spans: Vec<Vec<Span>>,
}

/// Runs the closed loop for `duration`. With `trace = Some(epoch)` every
/// dial records an `op` span with `wire.connect`, `wire.send` and
/// `wire.recv` children.
#[must_use]
pub fn closed_loop(
    devices: &mut [Device],
    inputs: &Inputs,
    connector: &LoopbackConnector,
    duration: Duration,
    trace: Option<Instant>,
) -> LoopResult {
    let mut parts: Vec<Vec<&mut Device>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for (id, device) in devices.iter_mut().enumerate() {
        parts[id % CLIENTS].push(device);
    }
    let barrier = Barrier::new(CLIENTS);
    let epoch = Instant::now();
    let results: Vec<ThreadResult> = thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(t, mut mine)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let tracer = trace.map(|epoch| Tracer::new(epoch, 1 << 18));
                    barrier.wait();
                    client_thread(t, &mut mine, inputs, connector, epoch, duration, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = results
        .iter()
        .map(|r| r.end)
        .max()
        .expect("client threads ran");
    let mut out = LoopResult {
        wall: end - epoch,
        ..LoopResult::default()
    };
    for r in results {
        out.ops.extend(r.ops);
        out.connect_failures += r.connect_failures;
        if let Some(tracer) = r.tracer {
            out.spans.push(tracer.into_spans());
        }
    }
    out
}

impl LoopResult {
    /// `(completion ns, latency µs)` of the verified dials, in the order
    /// their `Bye` arrived.
    #[must_use]
    pub fn completions(&self) -> Vec<(u64, f64)> {
        let mut done: Vec<(u64, f64)> = self
            .ops
            .iter()
            .filter(|op| op.dial.verified)
            .map(|op| (op.done_ns, op.latency_ns as f64 / 1e3))
            .collect();
        done.sort_by_key(|d| d.0);
        done
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

struct ThreadResult {
    ops: Vec<OpRecord>,
    connect_failures: u64,
    end: Instant,
    tracer: Option<Tracer>,
}

fn client_thread(
    t: usize,
    mine: &mut [&mut Device],
    inputs: &Inputs,
    connector: &LoopbackConnector,
    epoch: Instant,
    duration: Duration,
    mut tracer: Option<Tracer>,
) -> ThreadResult {
    let timeout = Duration::from_millis(IO_TIMEOUT_MS);
    let deadline = epoch + duration;
    let mut ops = Vec::with_capacity(1 << 16);
    let mut connect_failures = 0;
    let mut k = 0usize;
    while Instant::now() < deadline && tracer.as_ref().is_none_or(Tracer::has_room) {
        let id = inputs.device_at(t, k);
        let op = u32::try_from(k * CLIENTS + t).expect("op index fits u32");
        k += 1;
        let device = &mut *mine[id as usize / CLIENTS];
        let begun = Instant::now();
        let measured = match tracer.as_mut() {
            None => connector.connect().ok().map(|mut conn| {
                let dial = dial_once(device, id, &mut conn, timeout);
                (dial, conn.stats())
            }),
            Some(tracer) => {
                tracer.set_op(op);
                tracer.begin("op");
                let conn = tracer.time("wire.connect", || connector.connect());
                let measured = conn.ok().map(|inner| {
                    let mut conn = TracedConn {
                        inner,
                        tracer: &mut *tracer,
                    };
                    let dial = dial_once(device, id, &mut conn, timeout);
                    (dial, conn.stats())
                });
                tracer.end();
                measured
            }
        };
        let done = Instant::now();
        let latency_ns = nanos(done - begun);
        let done_ns = nanos(done - epoch);
        match measured {
            Some((dial, stats)) => ops.push(OpRecord {
                latency_ns,
                done_ns,
                dial,
                frames: stats.frames_in + stats.frames_out,
                bytes: stats.bytes_in + stats.bytes_out,
            }),
            None => connect_failures += 1,
        }
    }
    ThreadResult {
        ops,
        connect_failures,
        end: Instant::now(),
        tracer,
    }
}
