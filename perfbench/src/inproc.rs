//! The traced run's in-process half: the same seeded op stream as the
//! wire run, on a fresh fleet built from the same inputs, on one thread
//! and without a transport.
//!
//! Each op replays the verifier-side public calls the gateway makes, in
//! the gateway's order, inside an `op` span: `gateway.codec` around every
//! `GatewayMsg` encode/decode, `verifier.make_request`, `channel.seal` /
//! `channel.open` for session frames, `gateway.verify` around
//! `DeviceDirectory::verify_response`. The device's turn sits in a
//! `client` span (with `prover.host` around the prover or responder call)
//! and is not verifier-side work. After the op, an `attr` span times the
//! pieces of the verify on the same inputs: `gateway.directory` around
//! `DeviceDirectory::with_expected` with `verifier.check` around
//! `Verifier::check_response_view` inside it, then `segcache.digest`,
//! `segcache.combine` and `crypto.outer_mac` on the op's patched segment,
//! MAC input and key.

use std::time::{Duration, Instant};

use proverguard_attest::channel::SecureChannel;
use proverguard_attest::freshness::counter_r_offset;
use proverguard_attest::gateway::{DeviceDirectory, GatewayMsg};
use proverguard_attest::imagecache::ExpectedView;
use proverguard_attest::message::{AttestRequest, AttestResponse, AttestScope};
use proverguard_attest::segcache::{combined_input, history_input, segment_digest, HistoryReport};
use proverguard_crypto::mac::MacKey;

use crate::fleet::{self, Device, Fleet, Inputs, Rng, Workload};
use crate::trace::{Span, Tracer};

/// One in-process op's counts.
#[derive(Debug, Clone, Copy)]
pub struct InprocOp {
    /// Position in the merged op stream.
    pub op: u32,
    /// Heap allocations during the whole op.
    pub allocs: u64,
    /// Heap allocations inside `Verifier::check_response_view`.
    pub check_allocs: u64,
    /// Bytes the verifier fed to SHA-1 and MACs for the verdict.
    pub mac_bytes: u64,
}

/// What the in-process replay measured.
#[derive(Debug, Default)]
pub struct InprocResult {
    /// Every op's span tree, op and attribution spans together.
    pub spans: Vec<Span>,
    /// Per-op counts.
    pub ops: Vec<InprocOp>,
    /// Tampered responses checked and rejected (the negative control; an
    /// accepted one fails the replay).
    pub controls: u64,
}

/// One in eight ops also checks a tampered copy of its response.
const CONTROL_EVERY: u64 = 8;

/// Counts heap allocations so far (the traced binary's allocator).
pub type AllocCounter = fn() -> u64;

/// The session ends of one device, verifier side first.
type Channels = (SecureChannel, SecureChannel);

struct Replay<'a> {
    workload: Workload,
    directory: &'a DeviceDirectory,
    devices: &'a mut [Device],
    channels: Vec<Option<Channels>>,
    keys: Vec<MacKey>,
    allocs: AllocCounter,
}

/// Replays the first `max_ops` ops of the stream (fewer if `budget` runs
/// out), after bringing the fresh `fleet` to the same steady state as the
/// wire run's warm-up.
///
/// # Errors
///
/// A message if any honest op fails to verify or a tampered response is
/// accepted.
pub fn replay(
    fleet: &mut Fleet,
    inputs: &Inputs,
    seed: u64,
    max_ops: usize,
    budget: Duration,
    allocs: AllocCounter,
) -> Result<InprocResult, String> {
    let workload = inputs.workload;
    let config = workload.config();
    let keys = inputs
        .keys
        .iter()
        .map(|k| MacKey::new(config.response_mac, k).expect("16-byte key fits"))
        .collect();
    let mut replay = Replay {
        workload,
        directory: &fleet.directory,
        devices: &mut fleet.devices,
        channels: (0..workload.devices()).map(|_| None).collect(),
        keys,
        allocs,
    };

    // Warm-up, mirroring `fleet::warm_up`; its spans are discarded.
    let epoch = Instant::now();
    let mut scratch = Tracer::new(epoch, 1 << 10);
    for id in 0..workload.devices() as u64 {
        let mut rounds = fleet::warmup_dials(workload);
        if workload == Workload::SessionHistory {
            replay.handshake(id)?;
            rounds -= 1;
        }
        for _ in 0..rounds {
            if !replay.op(id, &mut scratch)?.2 {
                return Err(format!("in-process warm-up of device {id} did not verify"));
            }
            scratch.clear();
        }
    }

    let mut tracer = Tracer::new(epoch, 1 << 18);
    let mut out = InprocResult::default();
    let mut control = Rng::new(seed, 7);
    let stop = Instant::now() + budget;
    for j in 0..max_ops {
        if !tracer.has_room() || Instant::now() >= stop {
            break;
        }
        let id = inputs.stream_device(j);
        let op = u32::try_from(j).expect("op index fits u32");
        tracer.set_op(op);
        let before = allocs();
        let (request, response, verified) = replay.op(id, &mut tracer)?;
        let op_allocs = allocs() - before;
        if !verified {
            return Err(format!("in-process op {j} (device {id}) did not verify"));
        }
        let (check_allocs, mac_bytes) = replay.attribute(id, &request, &response, &mut tracer)?;
        out.ops.push(InprocOp {
            op,
            allocs: op_allocs,
            check_allocs,
            mac_bytes,
        });

        // Negative control: a one-bit flip must fail the same check.
        let draw = control.next_u64();
        if draw.is_multiple_of(CONTROL_EVERY) && !response.report.is_empty() {
            let mut tampered = response.clone();
            let bit = (draw >> 8) as usize % (tampered.report.len() * 8);
            tampered.report[bit / 8] ^= 1 << (bit % 8);
            if replay.check(id, &request, &tampered) {
                return Err(format!("tampered response of op {j} was accepted"));
            }
            out.controls += 1;
        }
    }
    out.spans = tracer.into_spans();
    Ok(out)
}

impl Replay<'_> {
    fn handshake(&mut self, id: u64) -> Result<(), String> {
        let Device::Agent(agent) = &mut self.devices[id as usize] else {
            return Err("session workload needs real provers".to_string());
        };
        let ends = fleet::handshake_in_process(self.directory, agent.prover_mut(), id)?;
        self.channels[id as usize] = Some(ends);
        Ok(())
    }

    /// One op in the gateway's order. Returns the request, the response
    /// and the verdict.
    fn op(
        &mut self,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<(AttestRequest, AttestResponse, bool), String> {
        match self.workload {
            Workload::OneshotWhole | Workload::OneshotSegmented => self.oneshot(id, tr),
            Workload::SessionHistory => self.session_round(id, tr),
        }
    }

    fn oneshot(
        &mut self,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<(AttestRequest, AttestResponse, bool), String> {
        let dir = self.directory;
        let hello = GatewayMsg::Hello { device_id: id }.encode();
        tr.begin("op");
        let first = tr.time("gateway.codec", || GatewayMsg::decode(&hello));
        if first != Ok(GatewayMsg::Hello { device_id: id }) {
            return Err("hello did not round-trip".to_string());
        }
        let request = tr
            .time("verifier.make_request", || {
                dir.with_verifier(id, |v| v.make_request())
            })
            .ok_or("unknown device")?
            .map_err(|e| e.to_string())?;
        let frame = tr.time("gateway.codec", || {
            GatewayMsg::AttReq(request.to_bytes()).encode()
        });
        tr.begin("client");
        let reply = client_oneshot(&mut self.devices[id as usize], &frame, tr);
        tr.end();
        let response = tr.time("gateway.codec", || match GatewayMsg::decode(&reply) {
            Ok(GatewayMsg::AttResp(raw)) => AttestResponse::from_bytes(&raw).ok(),
            _ => None,
        });
        let Some(response) = response else {
            tr.end();
            return Err(format!("device {id} did not answer with a response"));
        };
        let verified = tr
            .time("gateway.verify", || {
                dir.verify_response(id, &request, &response)
            })
            .ok_or("unknown device")?;
        let bye = tr.time("gateway.codec", || GatewayMsg::Bye { verified }.encode());
        tr.end();
        drop(bye);
        Ok((request, response, verified))
    }

    fn session_round(
        &mut self,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<(AttestRequest, AttestResponse, bool), String> {
        let dir = self.directory;
        let (verifier_end, prover_end) = self.channels[id as usize]
            .as_mut()
            .ok_or("session round before handshake")?;
        let Device::Agent(agent) = &mut self.devices[id as usize] else {
            return Err("session workload needs real provers".to_string());
        };
        let hello = GatewayMsg::SessHello {
            device_id: id,
            session_id: Some(prover_end.session_id()),
        }
        .encode();
        tr.begin("op");
        let first = tr.time("gateway.codec", || GatewayMsg::decode(&hello));
        if !matches!(first, Ok(GatewayMsg::SessHello { session_id: Some(sid), .. }) if sid == verifier_end.session_id())
        {
            return Err("session hello did not round-trip".to_string());
        }
        let request = tr
            .time("verifier.make_request", || {
                dir.with_verifier(id, |v| v.make_session_request())
            })
            .ok_or("unknown device")?
            .map_err(|e| e.to_string())?;
        let payload = tr.time("gateway.codec", || {
            GatewayMsg::AttReq(request.to_bytes()).encode()
        });
        let sealed = tr.time("channel.seal", || verifier_end.seal_next(&payload));
        let frame = tr.time("gateway.codec", || GatewayMsg::SessFrame(sealed).encode());

        tr.begin("client");
        let reply = client_session_turn(agent.prover_mut(), prover_end, &frame, tr);
        tr.end();
        let Some(reply) = reply else {
            tr.end();
            return Err(format!("device {id} refused the session round"));
        };

        let sealed = tr.time("gateway.codec", || match GatewayMsg::decode(&reply) {
            Ok(GatewayMsg::SessFrame(sealed)) => Some(sealed),
            _ => None,
        });
        let inner = sealed.and_then(|s| tr.time("channel.open", || verifier_end.open(&s).ok()));
        let response = inner.and_then(|inner| {
            tr.time("gateway.codec", || match GatewayMsg::decode(&inner) {
                Ok(GatewayMsg::AttResp(raw)) => AttestResponse::from_bytes(&raw).ok(),
                _ => None,
            })
        });
        let Some(response) = response else {
            tr.end();
            return Err(format!("device {id} sent no sealed response"));
        };
        let verified = tr
            .time("gateway.verify", || {
                dir.verify_response(id, &request, &response)
            })
            .ok_or("unknown device")?;
        if verified {
            tr.time("channel.rekey", || verifier_end.note_round());
        }
        let bye = tr.time("gateway.codec", || GatewayMsg::Bye { verified }.encode());
        tr.end();
        drop(bye);
        if verified {
            // The device counts the round when it reads the Bye (lockstep
            // rekey), after the gateway is done.
            prover_end.note_round();
        }
        Ok((request, response, verified))
    }

    /// Non-mutating verify through the gateway's cached view.
    fn check(&self, id: u64, request: &AttestRequest, response: &AttestResponse) -> bool {
        let dir = self.directory;
        dir.with_expected(id, &request.freshness, |view| {
            dir.with_verifier(id, |v| v.check_response_view(request, response, view))
        })
        .flatten()
        .unwrap_or(false)
    }

    /// Times the pieces of the op's verify on the op's own inputs. Returns
    /// the allocations inside the check and the bytes MACed or hashed.
    fn attribute(
        &self,
        id: u64,
        request: &AttestRequest,
        response: &AttestResponse,
        tr: &mut Tracer,
    ) -> Result<(u64, u64), String> {
        let dir = self.directory;
        let allocs = self.allocs;
        let seg_len = self
            .workload
            .config()
            .segmented
            .map_or(0, |p| p.segment_len);
        let signed = request.signed_bytes();
        // Inputs of the replays, copied out of the same cached view the
        // check reads (untimed): the whole image for Whole scope, the
        // segments to re-digest and the digest vector otherwise.
        let prepared = dir
            .with_expected(id, &request.freshness, |view| {
                prepare(request.scope, response, view, seg_len as usize)
            })
            .ok_or("unknown device")?
            .ok_or("bad history report")?;
        let key = &self.keys[id as usize];

        tr.begin("attr");
        tr.begin("gateway.directory");
        let checked = dir.with_expected(id, &request.freshness, |view| {
            dir.with_verifier(id, |v| {
                tr.begin("verifier.check");
                let before = allocs();
                let ok = v.check_response_view(request, response, view);
                let n = allocs() - before;
                tr.end();
                (ok, n)
            })
        });
        tr.end();
        let Some(Some((true, check_allocs))) = checked else {
            tr.end();
            return Err(format!("attribution check of device {id} failed"));
        };

        let digested: u64 = prepared.segments.iter().map(|(_, s)| s.len() as u64).sum();
        let input = match request.scope {
            AttestScope::Whole => {
                let mut input = signed;
                input.extend_from_slice(&prepared.memory);
                input
            }
            AttestScope::Segmented => {
                let [(index, bytes)] = &prepared.segments[..] else {
                    tr.end();
                    return Err("segmented op patches exactly one segment".to_string());
                };
                let mut digests = prepared.digests;
                digests[*index] =
                    tr.time("segcache.digest", || segment_digest(*index as u32, bytes));
                tr.time("segcache.combine", || {
                    combined_input(&signed, seg_len, &digests)
                })
            }
            AttestScope::History { .. } => {
                let report = prepared.report.ok_or("history op without a report")?;
                let fresh: Vec<[u8; 20]> = tr.time("segcache.digest", || {
                    prepared
                        .segments
                        .iter()
                        .map(|(i, s)| segment_digest(*i as u32, s))
                        .collect()
                });
                tr.time("segcache.combine", || {
                    history_input(&signed, seg_len, &report, &fresh)
                })
            }
        };
        tr.time("crypto.outer_mac", || key.compute(&input));
        let mac_bytes = digested + input.len() as u64;
        tr.end();
        Ok((check_allocs, mac_bytes))
    }
}

/// Copies of what a verify reads for one op.
struct Prepared {
    /// The expected image (Whole scope only).
    memory: Vec<u8>,
    /// `(index, bytes)` of each segment the verify re-digests.
    segments: Vec<(usize, Vec<u8>)>,
    /// The cached digest vector before re-digesting (Segmented only).
    digests: Vec<[u8; 20]>,
    /// The decoded modified-set report (History only).
    report: Option<HistoryReport>,
}

/// Copies the replay inputs of one op out of its expected view. `None`
/// for a History response whose report does not decode.
fn prepare(
    scope: AttestScope,
    response: &AttestResponse,
    view: &ExpectedView<'_>,
    seg_len: usize,
) -> Option<Prepared> {
    let memory = view.memory();
    let segment = |i: usize| {
        (
            i,
            memory[i * seg_len..((i + 1) * seg_len).min(memory.len())].to_vec(),
        )
    };
    Some(match scope {
        AttestScope::Whole => Prepared {
            memory: memory.to_vec(),
            segments: Vec::new(),
            digests: Vec::new(),
            report: None,
        },
        AttestScope::Segmented => Prepared {
            memory: Vec::new(),
            segments: vec![segment(counter_r_offset() / seg_len)],
            digests: view.digests(seg_len),
            report: None,
        },
        AttestScope::History { .. } => {
            let count = memory.len().div_ceil(seg_len);
            let (report, _) = HistoryReport::decode(&response.report, count)?;
            Prepared {
                memory: Vec::new(),
                segments: report.modified_indices().into_iter().map(segment).collect(),
                digests: Vec::new(),
                report: Some(report),
            }
        }
    })
}

/// The device's turn of a one-shot op: decode `AttReq`, answer, encode.
fn client_oneshot(device: &mut Device, frame: &[u8], tr: &mut Tracer) -> Vec<u8> {
    let Ok(GatewayMsg::AttReq(raw)) = GatewayMsg::decode(frame) else {
        return Vec::new();
    };
    tr.begin("prover.host");
    let answer = match device {
        Device::Agent(agent) => agent
            .prover_mut()
            .handle_wire_request(&raw)
            .map_err(|e| e.to_string()),
        Device::Responder(responder) => responder.respond(&raw).map_err(|r| format!("{r:?}")),
    };
    tr.end();
    match answer {
        Ok(response) => GatewayMsg::AttResp(response).encode(),
        Err(_) => Vec::new(),
    }
}

/// The device's turn of a session round: open the frame, answer the
/// inner request, seal the reply — what the agent does over the wire.
fn client_session_turn(
    prover: &mut proverguard_attest::Prover,
    chan: &mut SecureChannel,
    frame: &[u8],
    tr: &mut Tracer,
) -> Option<Vec<u8>> {
    let Ok(GatewayMsg::SessFrame(sealed)) = GatewayMsg::decode(frame) else {
        return None;
    };
    let inner = chan.open(&sealed).ok()?;
    let Ok(GatewayMsg::AttReq(raw)) = GatewayMsg::decode(&inner) else {
        return None;
    };
    let response = tr.time("prover.host", || prover.handle_session_wire_request(&raw));
    let reply = GatewayMsg::AttResp(response.ok()?).encode();
    Some(GatewayMsg::SessFrame(chan.seal_next(&reply)).encode())
}
