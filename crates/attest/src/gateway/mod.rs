//! The verifier **gateway**: a concurrent attestation server for a fleet
//! of socketed provers.
//!
//! Everything below this module drives one verifier against one prover
//! through in-process calls. The gateway is the production shape: an
//! accept loop pulls connections off a [`proverguard_transport::Acceptor`]
//! (TCP, or the in-memory loopback hub for CI), pushes them through a
//! **bounded** work queue, and a fixed pool of worker threads runs one
//! [`SessionDriver`] attestation per connection against the per-device
//! [`Verifier`] state held in a [`DeviceDirectory`].
//!
//! Backpressure is explicit and cheap, mirroring the paper's prover-side
//! philosophy at the fleet level: when the queue is full the accept loop
//! answers with a one-frame [`GatewayMsg::Busy`] and drops the connection
//! — it never queues unboundedly and never spends a worker on load it
//! cannot serve. Honest provers treat `Busy` as a retry-with-backoff
//! signal (see [`ProverAgent::attest_with_retry`]); floods just get a
//! 1-frame brush-off.
//!
//! Every worker keeps thread-local [`proverguard_telemetry`] metrics and
//! traces; [`GatewayHandle::shutdown`] joins the threads and folds their
//! registries into one [`GatewayReport`] via `Registry::merge`, so byte
//! counters, queue-depth gauges and per-session latency histograms
//! survive the thread boundary.
//!
//! # I/O drivers
//!
//! Two interchangeable I/O drivers share all of the above protocol and
//! accounting machinery, selected by [`GatewayConfig::io_driver`]:
//!
//! - [`IoDriver::ThreadPool`] (the default): one blocking OS thread per
//!   in-flight connection, bounded by `workers` + `queue_depth`. Simple,
//!   and the reference semantics for differential testing.
//! - [`IoDriver::Reactor`]: `reactor_shards` event-loop threads, each
//!   owning a [`proverguard_reactor::Poller`] plus a deadline wheel and
//!   driving every one of its connections as a poll-driven continuation
//!   ([`crate::session::DriverCursor`] for one-shot retries, the same
//!   [`crate::channel`] state machines for secure sessions). Capacity is
//!   `reactor_shards * max_conns_per_shard` concurrent connections — tens
//!   of thousands per process instead of tens — and overload is still
//!   shed with the same deterministic one-frame `Busy`.
//!
//! Both drivers feed the same [`GatewayStats`], so the conservation laws
//! ([`GatewaySnapshot::partition_holds`],
//! [`GatewaySnapshot::session_partition_holds`]) hold identically; the
//! reactor additionally exposes per-shard [`ShardSnapshot`]s with their
//! own partition law.

mod reactor;

pub use reactor::ShardSnapshot;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use proverguard_telemetry::metrics::{self, Registry};
use proverguard_telemetry::trace;
use proverguard_transport::{Acceptor, Transport, TransportError};

use proverguard_crypto::mac::MacAlgorithm;

use crate::channel::{self, HandshakeAccept, HandshakeInit, SecureChannel};
use crate::error::{AttestError, RejectReason};
use crate::fleet::{FleetController, FleetPolicy};
use crate::imagecache::{CachedImage, ExpectedView, ImageCache};
use crate::message::{AttestRequest, AttestResponse, FreshnessField};
use crate::prover::Prover;
use crate::session::{AttemptOutcome, RetryPolicy, SessionDriver, SessionLink};
use crate::verifier::Verifier;

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

const TAG_HELLO: u8 = 1;
const TAG_ATTREQ: u8 = 2;
const TAG_ATTRESP: u8 = 3;
const TAG_REJECT: u8 = 4;
const TAG_BUSY: u8 = 5;
const TAG_BYE: u8 = 6;
const TAG_COMMAND: u8 = 7;
const TAG_RECEIPT: u8 = 8;
const TAG_SESS_HELLO: u8 = 9;
const TAG_SESS_INIT: u8 = 10;
const TAG_SESS_ACCEPT: u8 = 11;
const TAG_SESS_FRAME: u8 = 12;

/// One gateway-protocol message, carried as the payload of one transport
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayMsg {
    /// Prover → gateway, first message: which device is calling.
    Hello {
        /// Index of the device in the gateway's [`DeviceDirectory`].
        device_id: u64,
    },
    /// Gateway → prover: a serialized [`crate::message::AttestRequest`].
    AttReq(Vec<u8>),
    /// Prover → gateway: a serialized [`AttestResponse`].
    AttResp(Vec<u8>),
    /// Prover → gateway: the prover's defences rejected the request.
    Reject(RejectReason),
    /// Gateway → prover: load shed at admission — try again later.
    Busy,
    /// Gateway → prover: session over.
    Bye {
        /// Whether the attestation verified.
        verified: bool,
    },
    /// Verifier → prover: a serialized
    /// [`crate::services::CommandRequest`] (gated OTA/erase commands over
    /// the same session protocol).
    Command(Vec<u8>),
    /// Prover → verifier: a serialized
    /// [`crate::services::CommandReceipt`].
    Receipt(Vec<u8>),
    /// Prover → gateway, first message of a **session-mode** connection:
    /// which device is calling and, for a resumed session, which session.
    SessHello {
        /// Index of the device in the gateway's [`DeviceDirectory`].
        device_id: u64,
        /// `None` opens a new session (attested handshake); `Some`
        /// resumes an established one for a cheap in-session round.
        session_id: Option<[u8; channel::SESSION_ID_SIZE]>,
    },
    /// Gateway → prover: a serialized [`channel::HandshakeInit`].
    SessInit(Vec<u8>),
    /// Prover → gateway: a serialized [`channel::HandshakeAccept`].
    SessAccept(Vec<u8>),
    /// Either direction: one sealed [`channel::SecureChannel`] frame
    /// carrying a gateway message (`AttReq`/`AttResp`/`Reject`).
    SessFrame(Vec<u8>),
}

fn reason_code(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::BadAuth => 1,
        RejectReason::NonceReused => 2,
        RejectReason::StaleCounter => 3,
        RejectReason::TimestampNotMonotonic => 4,
        RejectReason::TimestampOutOfWindow => 5,
        RejectReason::FreshnessKindMismatch => 6,
        RejectReason::Malformed => 7,
        RejectReason::Throttled => 8,
        RejectReason::DegradedMode => 9,
        RejectReason::ScopeUnsupported => 10,
        RejectReason::SessionExpired => 11,
        RejectReason::SessionReplay => 12,
        RejectReason::SessionAuth => 13,
    }
}

fn reason_from_code(code: u8) -> Option<RejectReason> {
    Some(match code {
        1 => RejectReason::BadAuth,
        2 => RejectReason::NonceReused,
        3 => RejectReason::StaleCounter,
        4 => RejectReason::TimestampNotMonotonic,
        5 => RejectReason::TimestampOutOfWindow,
        6 => RejectReason::FreshnessKindMismatch,
        7 => RejectReason::Malformed,
        8 => RejectReason::Throttled,
        9 => RejectReason::DegradedMode,
        10 => RejectReason::ScopeUnsupported,
        11 => RejectReason::SessionExpired,
        12 => RejectReason::SessionReplay,
        13 => RejectReason::SessionAuth,
        _ => return None,
    })
}

impl GatewayMsg {
    /// Serializes the message (tag byte + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            GatewayMsg::Hello { device_id } => {
                let mut out = Vec::with_capacity(9);
                out.push(TAG_HELLO);
                out.extend_from_slice(&device_id.to_be_bytes());
                out
            }
            GatewayMsg::AttReq(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_ATTREQ);
                out.extend_from_slice(bytes);
                out
            }
            GatewayMsg::AttResp(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_ATTRESP);
                out.extend_from_slice(bytes);
                out
            }
            GatewayMsg::Reject(reason) => vec![TAG_REJECT, reason_code(*reason)],
            GatewayMsg::Busy => vec![TAG_BUSY],
            GatewayMsg::Bye { verified } => vec![TAG_BYE, u8::from(*verified)],
            GatewayMsg::Command(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_COMMAND);
                out.extend_from_slice(bytes);
                out
            }
            GatewayMsg::Receipt(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_RECEIPT);
                out.extend_from_slice(bytes);
                out
            }
            GatewayMsg::SessHello {
                device_id,
                session_id,
            } => {
                let mut out = Vec::with_capacity(10 + channel::SESSION_ID_SIZE);
                out.push(TAG_SESS_HELLO);
                out.extend_from_slice(&device_id.to_be_bytes());
                match session_id {
                    None => out.push(0),
                    Some(sid) => {
                        out.push(1);
                        out.extend_from_slice(sid);
                    }
                }
                out
            }
            GatewayMsg::SessInit(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_SESS_INIT);
                out.extend_from_slice(bytes);
                out
            }
            GatewayMsg::SessAccept(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_SESS_ACCEPT);
                out.extend_from_slice(bytes);
                out
            }
            GatewayMsg::SessFrame(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_SESS_FRAME);
                out.extend_from_slice(bytes);
                out
            }
        }
    }

    /// Parses one message. Unknown tags, truncated bodies and unknown
    /// reject codes are all [`AttestError::MalformedMessage`] — never a
    /// panic.
    ///
    /// # Errors
    ///
    /// [`AttestError::MalformedMessage`] as above.
    pub fn decode(bytes: &[u8]) -> Result<Self, AttestError> {
        let malformed = |reason: &str| AttestError::MalformedMessage {
            reason: reason.to_string(),
        };
        let (&tag, body) = bytes
            .split_first()
            .ok_or_else(|| malformed("empty message"))?;
        match tag {
            TAG_HELLO => {
                let raw: [u8; 8] = body
                    .try_into()
                    .map_err(|_| malformed("hello body must be 8 bytes"))?;
                Ok(GatewayMsg::Hello {
                    device_id: u64::from_be_bytes(raw),
                })
            }
            TAG_ATTREQ => Ok(GatewayMsg::AttReq(body.to_vec())),
            TAG_ATTRESP => Ok(GatewayMsg::AttResp(body.to_vec())),
            TAG_REJECT => {
                let [code] = body else {
                    return Err(malformed("reject body must be 1 byte"));
                };
                let reason =
                    reason_from_code(*code).ok_or_else(|| malformed("unknown reject code"))?;
                Ok(GatewayMsg::Reject(reason))
            }
            TAG_BUSY => {
                if body.is_empty() {
                    Ok(GatewayMsg::Busy)
                } else {
                    Err(malformed("busy carries no body"))
                }
            }
            TAG_BYE => {
                let [flag] = body else {
                    return Err(malformed("bye body must be 1 byte"));
                };
                Ok(GatewayMsg::Bye {
                    verified: *flag == 1,
                })
            }
            TAG_COMMAND => Ok(GatewayMsg::Command(body.to_vec())),
            TAG_RECEIPT => Ok(GatewayMsg::Receipt(body.to_vec())),
            TAG_SESS_HELLO => {
                if body.len() < 9 {
                    return Err(malformed("session hello too short"));
                }
                let device_id = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
                let session_id = match body[8] {
                    0 if body.len() == 9 => None,
                    1 if body.len() == 9 + channel::SESSION_ID_SIZE => {
                        let mut sid = [0u8; channel::SESSION_ID_SIZE];
                        sid.copy_from_slice(&body[9..]);
                        Some(sid)
                    }
                    _ => return Err(malformed("session hello malformed")),
                };
                Ok(GatewayMsg::SessHello {
                    device_id,
                    session_id,
                })
            }
            TAG_SESS_INIT => Ok(GatewayMsg::SessInit(body.to_vec())),
            TAG_SESS_ACCEPT => Ok(GatewayMsg::SessAccept(body.to_vec())),
            TAG_SESS_FRAME => Ok(GatewayMsg::SessFrame(body.to_vec())),
            _ => Err(malformed("unknown message tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// Device directory
// ---------------------------------------------------------------------------

/// Per-device verifier state the gateway serves sessions from.
#[derive(Debug)]
pub struct DeviceEntry {
    verifier: Mutex<Verifier>,
    /// Behind its own mutex so a running gateway can be re-targeted at a
    /// new expected image mid-campaign (per-wave OTA targets).
    image: Mutex<DeviceImage>,
    cache: Arc<ImageCache>,
    service_floor_ms: u64,
}

/// One device's expected image: the fleet-shared interned baseline plus
/// the only thing a device's image differs from it in — the freshness
/// word its prover commits before MACing. Binding a request writes 8
/// bytes here; no per-device copy of the image exists.
#[derive(Debug)]
struct DeviceImage {
    baseline: Arc<CachedImage>,
    /// `(offset, bytes)` of the freshness word laid over `baseline` for
    /// the current request, `None` when the request leaves the image as
    /// is (nonce or no freshness).
    word: Option<(usize, [u8; 8])>,
    /// Segment indices (at the baseline's digest granularity, ascending)
    /// that `word` lands in: exactly the segment holding `counter_R` in
    /// steady state.
    patched: Vec<usize>,
}

impl DeviceImage {
    fn new(cache: &ImageCache, expected_memory: &[u8], segment_len: u32) -> DeviceImage {
        let baseline = cache.intern(expected_memory, segment_len);
        cache.note_scratch_rebuild();
        DeviceImage {
            baseline,
            word: None,
            patched: Vec::new(),
        }
    }

    /// Binds the image the device will present for a request carrying
    /// `field`: the baseline everywhere except the freshness word the
    /// prover commits before MACing (reject-then-MAC ordering, §4.2).
    fn patch(&mut self, field: &FreshnessField) {
        self.word = crate::freshness::expected_word(field, self.baseline.bytes().len());
        self.patched.clear();
        let seg_len = self.baseline.segment_len() as usize;
        if let (Some((off, _)), true) = (self.word, seg_len > 0) {
            self.patched.extend(off / seg_len..=(off + 7) / seg_len);
        }
    }
}

/// The fleet roster: one [`Verifier`] (plus expected memory image) per
/// device, indexed by the `device_id` provers present in their `Hello`.
///
/// Entries are added before the gateway starts; at runtime the directory
/// is shared read-only and each entry guards its verifier with its own
/// mutex, so sessions for *different* devices never contend. Expected
/// images are interned into a shared [`ImageCache`]: every device on the
/// same firmware shares one baseline and one precomputed digest vector.
#[derive(Debug, Default)]
pub struct DeviceDirectory {
    entries: Vec<DeviceEntry>,
    cache: Arc<ImageCache>,
}

impl DeviceDirectory {
    /// An empty directory with its own image cache.
    #[must_use]
    pub fn new() -> Self {
        DeviceDirectory::default()
    }

    /// An empty directory interning expected images into `cache`. Hand
    /// the same handle to several directories — e.g. a thread-pool
    /// gateway and a reactor gateway — to share one fleet-wide digest
    /// cache across all their workers and shards.
    #[must_use]
    pub fn with_cache(cache: Arc<ImageCache>) -> Self {
        DeviceDirectory {
            entries: Vec::new(),
            cache,
        }
    }

    /// The shared expected-image cache.
    #[must_use]
    pub fn cache(&self) -> &Arc<ImageCache> {
        &self.cache
    }

    /// Registers a device; returns its `device_id`.
    pub fn register(&mut self, verifier: Verifier, expected_memory: Vec<u8>) -> u64 {
        self.register_with_floor(verifier, expected_memory, 0)
    }

    /// Registers a device whose sessions take at least `service_floor_ms`
    /// of wall time — a worker-occupancy knob used by backpressure tests
    /// and the bench's per-worker probe phase.
    pub fn register_with_floor(
        &mut self,
        verifier: Verifier,
        expected_memory: Vec<u8>,
        service_floor_ms: u64,
    ) -> u64 {
        let id = self.entries.len() as u64;
        let segment_len = verifier.segmented_params().map_or(0, |p| p.segment_len);
        let image = DeviceImage::new(&self.cache, &expected_memory, segment_len);
        self.entries.push(DeviceEntry {
            verifier: Mutex::new(verifier),
            image: Mutex::new(image),
            cache: Arc::clone(&self.cache),
            service_floor_ms,
        });
        id
    }

    /// Replaces the expected memory image of `device_id` — what a
    /// campaign does when a device's wave moves it to a new firmware
    /// target (or back to the old one on rollback). Takes `&self`: the
    /// directory is shared read-only with running workers, and each
    /// entry's image has its own lock.
    ///
    /// The new image is re-interned and the device's view rebound; if
    /// this device was the last one pointing at the superseded baseline,
    /// its cache entry is invalidated, so a stale digest vector can never
    /// outlive a retarget.
    ///
    /// Returns `false` for an unknown device.
    pub fn set_expected_memory(&self, device_id: u64, expected_memory: Vec<u8>) -> bool {
        match self.get(device_id) {
            Some(entry) => {
                let old = {
                    let mut image = entry.image.lock().expect("image lock poisoned");
                    let segment_len = image.baseline.segment_len();
                    let old = Arc::clone(&image.baseline);
                    *image = DeviceImage::new(&self.cache, &expected_memory, segment_len);
                    old
                };
                // Strong count 2 = this handle + the cache's slot: no
                // other device entry still references the old baseline.
                // (A re-target to the *same* image holds a third
                // reference through the rebound image, protecting the
                // entry from self-invalidation.)
                if Arc::strong_count(&old) <= 2 {
                    self.cache.invalidate(old.key());
                }
                true
            }
            None => false,
        }
    }

    /// Number of registered devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no devices are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Runs `f` against the expected-image view for `device_id` patched
    /// for `field` — the exact cached path gateway verifications take.
    /// Bench and differential-test hook. Returns `None` for an unknown
    /// device.
    pub fn with_expected<R>(
        &self,
        device_id: u64,
        field: &FreshnessField,
        f: impl FnOnce(&ExpectedView<'_>) -> R,
    ) -> Option<R> {
        self.get(device_id).map(|e| e.with_expected(field, f))
    }

    /// Runs `f` against the verifier of `device_id` (request minting for
    /// tests and benches that drive the cached verify path without a
    /// wire). Returns `None` for an unknown device.
    pub fn with_verifier<R>(
        &self,
        device_id: u64,
        f: impl FnOnce(&mut Verifier) -> R,
    ) -> Option<R> {
        self.get(device_id).map(|e| {
            let mut verifier = e.verifier.lock().expect("verifier lock poisoned");
            f(&mut verifier)
        })
    }

    /// Verifies `response` for `device_id` through the cached
    /// expected-image path and records the outcome on its verifier —
    /// exactly what both gateway drivers do for a completed attestation
    /// attempt. Returns `None` for an unknown device.
    pub fn verify_response(
        &self,
        device_id: u64,
        request: &AttestRequest,
        response: &AttestResponse,
    ) -> Option<bool> {
        self.get(device_id)
            .map(|e| e.check_and_note(request, response))
    }

    fn get(&self, device_id: u64) -> Option<&DeviceEntry> {
        usize::try_from(device_id)
            .ok()
            .and_then(|i| self.entries.get(i))
    }
}

impl DeviceEntry {
    /// Runs `f` with the expected-image view for a request carrying
    /// `field`: touches the shared cache (hit accounting + LRU refresh,
    /// refilling an evicted baseline for free), binds the freshness word
    /// over the shared baseline, and exposes baseline digests so
    /// Segmented and History checks re-digest only the freshness segment.
    fn with_expected<R>(
        &self,
        field: &FreshnessField,
        f: impl FnOnce(&ExpectedView<'_>) -> R,
    ) -> R {
        let mut image = self.image.lock().expect("image lock poisoned");
        self.cache.touch(&image.baseline);
        image.patch(field);
        let DeviceImage {
            baseline,
            word,
            patched,
        } = &*image;
        f(&ExpectedView::cached(baseline, *word, patched))
    }

    /// Verifies `response` against the cached expected view and records
    /// the outcome — the verify-and-note step shared by both gateway
    /// drivers for one-shot attempts and session rounds. Lock order is
    /// image → verifier, uniformly.
    fn check_and_note(&self, request: &AttestRequest, response: &AttestResponse) -> bool {
        self.with_expected(&request.freshness, |view| {
            let mut verifier = self.verifier.lock().expect("verifier lock poisoned");
            if verifier.check_response_view(request, response, view) {
                verifier.note_verified_view(request, response, view);
                true
            } else {
                verifier.note_failed(request);
                false
            }
        })
    }

    /// Confirms a session handshake's key-confirming attestation against
    /// the cached expected view (both drivers' handshake path).
    fn confirm_session(
        &self,
        init: &HandshakeInit,
        request: &AttestRequest,
        accept: &HandshakeAccept,
    ) -> Result<SecureChannel, AttestError> {
        self.with_expected(&request.freshness, |view| {
            let mut verifier = self.verifier.lock().expect("verifier lock poisoned");
            channel::verifier_confirm_view(&mut verifier, init, request, accept, view)
        })
    }
}

// ---------------------------------------------------------------------------
// Configuration & stats
// ---------------------------------------------------------------------------

/// Which I/O engine drives accepted connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoDriver {
    /// Blocking worker threads behind a bounded queue (the classic
    /// shape): concurrency = `workers` in service + `queue_depth` parked.
    #[default]
    ThreadPool,
    /// Sharded readiness event loops: concurrency = `reactor_shards` ×
    /// `max_conns_per_shard`, with worker-thread count = `reactor_shards`.
    Reactor,
}

/// Gateway tuning.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Which I/O engine serves accepted connections (see [`IoDriver`]).
    pub io_driver: IoDriver,
    /// Event-loop shard threads for [`IoDriver::Reactor`] (ignored by the
    /// thread pool).
    pub reactor_shards: usize,
    /// Per-shard connection cap for [`IoDriver::Reactor`]: once every
    /// shard is full, further accepts shed `Busy` — the reactor's
    /// equivalent of a full work queue.
    pub max_conns_per_shard: usize,
    /// Worker threads serving sessions.
    pub workers: usize,
    /// Bounded work-queue depth; a full queue sheds with `Busy`.
    pub queue_depth: usize,
    /// Per-connection read deadline (handshake and responses).
    pub read_timeout_ms: u64,
    /// Per-connection write deadline (where the OS supports one).
    pub write_timeout_ms: u64,
    /// Retry/backoff policy per session. `jitter_seed` is XORed with the
    /// device id so concurrent sessions decorrelate.
    pub retry: RetryPolicy,
    /// Hard cap on any single real backoff sleep a worker performs, so a
    /// saturated schedule cannot park a worker.
    pub backoff_cap_ms: u64,
    /// Accept-loop poll granularity (shutdown latency bound).
    pub accept_poll_ms: u64,
    /// Per-worker trace-ring capacity.
    pub trace_capacity: usize,
    /// Fleet-health tuning for the embedded [`FleetController`].
    pub fleet: FleetPolicy,
    /// Bounded session-table capacity; opening a session past it evicts
    /// the least-recently-used one.
    pub session_capacity: usize,
    /// Idle expiry for established sessions: a session untouched for this
    /// long is expired on next lookup or insert (the resuming prover gets
    /// [`RejectReason::SessionExpired`] and re-handshakes).
    pub session_idle_ms: u64,
    /// Verified in-session rounds between deterministic rekey ratchets
    /// (0 = never rekey).
    pub rekey_after_rounds: u32,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            io_driver: IoDriver::ThreadPool,
            reactor_shards: 2,
            max_conns_per_shard: 8_192,
            workers: 4,
            queue_depth: 16,
            read_timeout_ms: 1_000,
            write_timeout_ms: 1_000,
            retry: RetryPolicy {
                timeout_ms: 500,
                max_retries: 2,
                backoff_base_ms: 5,
                backoff_factor: 2,
                jitter_per_mille: 500,
                jitter_seed: 0x6761_7465, // "gate"
            },
            backoff_cap_ms: 50,
            accept_poll_ms: 10,
            trace_capacity: 4_096,
            fleet: FleetPolicy::default(),
            session_capacity: 64,
            session_idle_ms: 30_000,
            rekey_after_rounds: 8,
        }
    }
}

/// Live gateway counters (atomics; shared between accept loop, workers
/// and observers).
#[derive(Debug)]
pub struct GatewayStats {
    accepted: AtomicU64,
    busy_rejected: AtomicU64,
    enqueued: AtomicU64,
    handshake_failed: AtomicU64,
    sessions_ok: AtomicU64,
    sessions_failed: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    per_worker_sessions: Vec<AtomicU64>,
    sessions_opened: AtomicU64,
    sessions_active: AtomicU64,
    sessions_expired: AtomicU64,
    sessions_evicted: AtomicU64,
    sessions_rekeyed: AtomicU64,
}

impl GatewayStats {
    fn new(workers: usize) -> Self {
        GatewayStats {
            accepted: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            handshake_failed: AtomicU64::new(0),
            sessions_ok: AtomicU64::new(0),
            sessions_failed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            per_worker_sessions: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            sessions_opened: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            sessions_expired: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            sessions_rekeyed: AtomicU64::new(0),
        }
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> GatewaySnapshot {
        GatewaySnapshot {
            accepted: self.accepted.load(Ordering::SeqCst),
            busy_rejected: self.busy_rejected.load(Ordering::SeqCst),
            enqueued: self.enqueued.load(Ordering::SeqCst),
            handshake_failed: self.handshake_failed.load(Ordering::SeqCst),
            sessions_ok: self.sessions_ok.load(Ordering::SeqCst),
            sessions_failed: self.sessions_failed.load(Ordering::SeqCst),
            queue_peak: self.queue_peak.load(Ordering::SeqCst),
            per_worker_sessions: self
                .per_worker_sessions
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect(),
            sessions_opened: self.sessions_opened.load(Ordering::SeqCst),
            sessions_active: self.sessions_active.load(Ordering::SeqCst),
            sessions_expired: self.sessions_expired.load(Ordering::SeqCst),
            sessions_evicted: self.sessions_evicted.load(Ordering::SeqCst),
            sessions_rekeyed: self.sessions_rekeyed.load(Ordering::SeqCst),
        }
    }
}

/// A point-in-time copy of [`GatewayStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewaySnapshot {
    /// Connections pulled off the acceptor.
    pub accepted: u64,
    /// Connections shed with a `Busy` frame (queue full).
    pub busy_rejected: u64,
    /// Connections that made it onto the work queue.
    pub enqueued: u64,
    /// Enqueued connections that died before/during `Hello` (timeout,
    /// garbage, unknown device).
    pub handshake_failed: u64,
    /// Sessions whose attestation verified.
    pub sessions_ok: u64,
    /// Sessions driven to completion without a verified response.
    pub sessions_failed: u64,
    /// Highest simultaneous queue depth observed.
    pub queue_peak: u64,
    /// Sessions served per worker (ok + failed + handshake failures).
    pub per_worker_sessions: Vec<u64>,
    /// Secure-session **epochs** opened: one per attested handshake plus
    /// one per rekey ratchet (the post-ratchet keys are a new epoch).
    pub sessions_opened: u64,
    /// Session epochs currently live in the table.
    pub sessions_active: u64,
    /// Session epochs retired by idle expiry.
    pub sessions_expired: u64,
    /// Session epochs retired by LRU eviction, replacement on
    /// re-handshake, or fail-closed teardown after a bad round.
    pub sessions_evicted: u64,
    /// Session epochs retired by a deterministic rekey ratchet (the
    /// session lives on under the next epoch's keys).
    pub sessions_rekeyed: u64,
}

impl GatewaySnapshot {
    /// The conservation law every quiesced gateway must satisfy: each
    /// accepted connection was either shed `Busy` or enqueued, and each
    /// enqueued connection ended as exactly one of handshake-failed,
    /// session-ok or session-failed. Only meaningful once no sessions are
    /// in flight (after [`GatewayHandle::shutdown`]).
    #[must_use]
    pub fn partition_holds(&self) -> bool {
        self.accepted == self.busy_rejected + self.enqueued
            && self.enqueued == self.handshake_failed + self.sessions_ok + self.sessions_failed
    }

    /// Total sessions driven to completion (verified or not).
    #[must_use]
    pub fn sessions_total(&self) -> u64 {
        self.sessions_ok + self.sessions_failed
    }

    /// The session-table conservation law: every opened session epoch is
    /// exactly one of still-active, idle-expired, evicted, or rekeyed
    /// into its successor epoch. Only meaningful once no sessions are in
    /// flight (after [`GatewayHandle::shutdown`]).
    #[must_use]
    pub fn session_partition_holds(&self) -> bool {
        self.sessions_opened
            == self.sessions_active
                + self.sessions_expired
                + self.sessions_evicted
                + self.sessions_rekeyed
    }
}

// ---------------------------------------------------------------------------
// Session table
// ---------------------------------------------------------------------------

/// One established secure session held by the gateway.
struct SessionEntry {
    device_id: u64,
    chan: SecureChannel,
    last_used_ms: u64,
}

/// The gateway's bounded table of established sessions. Shared across
/// the worker pool (connections are not pinned to workers, so a resume
/// must find its session no matter which worker serves it); the single
/// mutex is held only for lookup/insert, never across a round's I/O.
/// Capacity is enforced by LRU eviction, idleness by lazy expiry on
/// lookup and insert. All transitions feed the [`GatewayStats`] session
/// counters so `opened = active + expired + evicted + rekeyed` holds.
#[derive(Default)]
struct SessionTable {
    entries: Vec<SessionEntry>,
}

impl SessionTable {
    /// Drops every idle-expired session.
    fn sweep(&mut self, now_ms: u64, idle_ms: u64, stats: &GatewayStats) {
        let before = self.entries.len();
        self.entries
            .retain(|e| now_ms.saturating_sub(e.last_used_ms) <= idle_ms);
        let expired = (before - self.entries.len()) as u64;
        if expired > 0 {
            stats.sessions_expired.fetch_add(expired, Ordering::SeqCst);
            stats.sessions_active.fetch_sub(expired, Ordering::SeqCst);
            metrics::counter_add("gateway.session.expired", expired);
        }
    }

    /// Takes the session named `sid` out of the table for serving (the
    /// caller reinserts it on success — fail-closed teardown otherwise).
    /// `None` if unknown, idle-expired, or bound to another device.
    fn take(
        &mut self,
        device_id: u64,
        sid: [u8; channel::SESSION_ID_SIZE],
        now_ms: u64,
        idle_ms: u64,
        stats: &GatewayStats,
    ) -> Option<SessionEntry> {
        self.sweep(now_ms, idle_ms, stats);
        let at = self
            .entries
            .iter()
            .position(|e| e.chan.session_id() == sid && e.device_id == device_id)?;
        Some(self.entries.remove(at))
    }

    /// Inserts a session, evicting the least-recently-used entry when the
    /// table is full and replacing any existing session for the same
    /// device (a re-handshake supersedes the old keys).
    fn insert(
        &mut self,
        entry: SessionEntry,
        capacity: usize,
        now_ms: u64,
        idle_ms: u64,
        stats: &GatewayStats,
    ) {
        self.sweep(now_ms, idle_ms, stats);
        let mut evicted = 0u64;
        let before = self.entries.len();
        self.entries.retain(|e| e.device_id != entry.device_id);
        evicted += (before - self.entries.len()) as u64;
        while self.entries.len() >= capacity.max(1) {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used_ms)
                .map(|(i, _)| i)
                .expect("non-empty table has an LRU entry");
            self.entries.remove(lru);
            evicted += 1;
        }
        if evicted > 0 {
            stats.sessions_evicted.fetch_add(evicted, Ordering::SeqCst);
            stats.sessions_active.fetch_sub(evicted, Ordering::SeqCst);
            metrics::counter_add("gateway.session.evicted", evicted);
        }
        self.entries.push(entry);
    }
}

// ---------------------------------------------------------------------------
// Gateway runtime
// ---------------------------------------------------------------------------

struct GatewayShared {
    directory: DeviceDirectory,
    fleet: Mutex<FleetController>,
    stats: GatewayStats,
    config: GatewayConfig,
    started: Instant,
    sessions: Mutex<SessionTable>,
}

impl GatewayShared {
    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

struct QueueItem {
    conn: Box<dyn Transport>,
    enqueued_at: Instant,
}

/// What one gateway thread hands back when it exits.
struct ThreadExit {
    registry: Registry,
    spans: u64,
    dropped_spans: u64,
}

/// The merged post-shutdown picture of a gateway run.
#[derive(Debug)]
pub struct GatewayReport {
    /// All thread registries folded together (`Registry::merge`): byte
    /// counters, queue gauges, session latency histograms.
    pub metrics: Registry,
    /// Trace spans recorded across all workers.
    pub spans: u64,
    /// Trace spans lost to ring overflow across all workers (0 when the
    /// configured `trace_capacity` sufficed).
    pub dropped_spans: u64,
    /// Final counter snapshot.
    pub stats: GatewaySnapshot,
}

/// A running gateway: accept loop + worker pool (or reactor shards).
pub struct GatewayHandle {
    shared: Arc<GatewayShared>,
    shutdown: Arc<AtomicBool>,
    accept_thread: JoinHandle<ThreadExit>,
    workers: Vec<JoinHandle<ThreadExit>>,
    /// Per-shard counters ([`IoDriver::Reactor`] only; empty otherwise).
    shard_stats: Vec<Arc<reactor::ShardStats>>,
    /// One waker per shard event loop, so shutdown can interrupt a
    /// timeout-less poll immediately.
    shard_wakers: Vec<proverguard_reactor::Waker>,
}

/// Namespace for [`Gateway::start`].
#[derive(Debug)]
pub struct Gateway;

impl Gateway {
    /// Starts the accept loop and worker pool over `acceptor`, serving
    /// the devices in `directory`. Runs until
    /// [`GatewayHandle::shutdown`].
    #[must_use]
    pub fn start(
        acceptor: Box<dyn Acceptor>,
        directory: DeviceDirectory,
        config: GatewayConfig,
    ) -> GatewayHandle {
        if config.io_driver == IoDriver::Reactor {
            return reactor::start(acceptor, directory, config);
        }
        let workers = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let fleet = FleetController::new(directory.len(), config.fleet);
        let shared = Arc::new(GatewayShared {
            directory,
            fleet: Mutex::new(fleet),
            stats: GatewayStats::new(workers),
            config,
            started: Instant::now(),
            sessions: Mutex::new(SessionTable::default()),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let (work_tx, work_rx) = sync_channel::<QueueItem>(queue_depth);
        let work_rx = Arc::new(Mutex::new(work_rx));

        let worker_handles = (0..workers)
            .map(|w| {
                let rx = Arc::clone(&work_rx);
                let ctx = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gw-worker-{w}"))
                    .spawn(move || worker_main(w, &rx, &ctx))
                    .expect("spawn gateway worker")
            })
            .collect();

        let accept_thread = {
            let ctx = Arc::clone(&shared);
            let flag = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("gw-accept".to_string())
                .spawn(move || accept_main(acceptor, &work_tx, &ctx, &flag))
                .expect("spawn gateway accept loop")
        };

        GatewayHandle {
            shared,
            shutdown,
            accept_thread,
            workers: worker_handles,
            shard_stats: Vec::new(),
            shard_wakers: Vec::new(),
        }
    }
}

impl GatewayHandle {
    /// Live counters.
    #[must_use]
    pub fn stats(&self) -> GatewaySnapshot {
        self.shared.stats.snapshot()
    }

    /// Read access to the per-device health ledger.
    pub fn with_fleet<R>(&self, f: impl FnOnce(&FleetController) -> R) -> R {
        f(&self.shared.fleet.lock().expect("fleet lock poisoned"))
    }

    /// Per-shard counter snapshots. Empty under [`IoDriver::ThreadPool`];
    /// one entry per event-loop shard under [`IoDriver::Reactor`]. Each
    /// satisfies [`ShardSnapshot::partition_holds`] and their sums match
    /// the global [`GatewaySnapshot`] partition terms.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardSnapshot> {
        self.shard_stats
            .iter()
            .enumerate()
            .map(|(i, s)| s.snapshot(i))
            .collect()
    }

    /// Graceful shutdown: stops accepting, lets in-flight sessions and
    /// the queued backlog finish, joins every thread and merges their
    /// telemetry.
    #[must_use]
    pub fn shutdown(self) -> GatewayReport {
        self.shutdown.store(true, Ordering::SeqCst);
        // Reactor shards may be parked in a timeout-less poll; a wake per
        // shard bounds shutdown latency without a polling loop.
        for waker in &self.shard_wakers {
            waker.wake();
        }
        // Joining the accept thread drops the queue sender; workers drain
        // the backlog, then their `recv` fails and they exit.
        let accept_exit = self
            .accept_thread
            .join()
            .expect("gateway accept thread panicked");
        for waker in &self.shard_wakers {
            waker.wake();
        }
        let mut metrics = accept_exit.registry;
        let mut spans = accept_exit.spans;
        let mut dropped_spans = accept_exit.dropped_spans;
        for handle in self.workers {
            let exit = handle.join().expect("gateway worker panicked");
            metrics.merge(&exit.registry);
            spans += exit.spans;
            dropped_spans += exit.dropped_spans;
        }
        GatewayReport {
            metrics,
            spans,
            dropped_spans,
            stats: self.shared.stats.snapshot(),
        }
    }
}

fn accept_main(
    mut acceptor: Box<dyn Acceptor>,
    work_tx: &SyncSender<QueueItem>,
    ctx: &GatewayShared,
    shutdown: &AtomicBool,
) -> ThreadExit {
    metrics::reset();
    let poll = Duration::from_millis(ctx.config.accept_poll_ms.max(1));
    while !shutdown.load(Ordering::SeqCst) {
        let conn = match acceptor.poll_accept(poll) {
            Ok(Some(conn)) => conn,
            Ok(None) => continue,
            Err(_) => break,
        };
        ctx.stats.accepted.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.accepted", 1);
        let item = QueueItem {
            conn,
            enqueued_at: Instant::now(),
        };
        // Count the slot *before* the send so a fast worker's decrement
        // can never observe (and underflow past) a not-yet-incremented
        // depth.
        let depth = ctx.stats.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        match work_tx.try_send(item) {
            Ok(()) => {
                ctx.stats.enqueued.fetch_add(1, Ordering::SeqCst);
                ctx.stats.queue_peak.fetch_max(depth, Ordering::SeqCst);
                metrics::gauge_set("gateway.queue_depth", depth);
            }
            Err(TrySendError::Full(item)) => {
                ctx.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
                ctx.stats.busy_rejected.fetch_add(1, Ordering::SeqCst);
                metrics::counter_add("gateway.busy", 1);
                let mut conn = item.conn;
                let _ = conn.set_deadline(Some(Duration::from_millis(ctx.config.write_timeout_ms)));
                let _ = conn.send(&GatewayMsg::Busy.encode());
            }
            Err(TrySendError::Disconnected(_)) => {
                ctx.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
                break;
            }
        }
    }
    ThreadExit {
        registry: metrics::snapshot(),
        spans: 0,
        dropped_spans: 0,
    }
}

fn worker_main(w: usize, rx: &Mutex<Receiver<QueueItem>>, ctx: &GatewayShared) -> ThreadExit {
    metrics::reset();
    trace::reset();
    trace::set_capacity(ctx.config.trace_capacity.max(16));
    trace::enable();
    let mut spans = 0u64;
    loop {
        // Holding the lock across the blocking `recv` serializes only the
        // *dequeue*, never the session work; idle workers park here.
        let item = match rx.lock().expect("gateway queue lock poisoned").recv() {
            Ok(item) => item,
            Err(_) => break,
        };
        let depth = ctx
            .stats
            .queue_depth
            .fetch_sub(1, Ordering::SeqCst)
            .saturating_sub(1);
        metrics::gauge_set("gateway.queue_depth", depth);
        serve_connection(w, item, ctx);
        // Keep the ring shallow so long runs never overflow it; `drain`
        // (unlike `clear`) preserves the dropped-span count.
        spans += trace::drain()
            .iter()
            .filter(|e| matches!(e, proverguard_telemetry::trace::TraceEvent::Span { .. }))
            .count() as u64;
    }
    ThreadExit {
        registry: metrics::snapshot(),
        spans,
        dropped_spans: trace::dropped(),
    }
}

fn serve_connection(w: usize, item: QueueItem, ctx: &GatewayShared) {
    let mut conn = item.conn;
    metrics::histogram_record(
        "gateway.queue_wait_us",
        u64::try_from(item.enqueued_at.elapsed().as_micros()).unwrap_or(u64::MAX),
    );
    let session_start = Instant::now();
    trace::set_now(ctx.elapsed_us());
    let span = trace::span("gateway.session");

    ctx.stats.per_worker_sessions[w].fetch_add(1, Ordering::SeqCst);
    let read_timeout = Duration::from_millis(ctx.config.read_timeout_ms);
    // One budget covers *every* read until the connection reaches serving
    // state — the first hello and each later handshake message draw down
    // the same deadline, so a slowloris peer dribbling one frame per
    // timeout cannot hold a worker for k × read_timeout.
    let establish_deadline = session_start + read_timeout;

    let fail_handshake = |label: &'static str| {
        ctx.stats.handshake_failed.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.handshake_failed", 1);
        metrics::counter_add(label, 1);
    };

    let _ = conn.set_deadline(Some(read_timeout));
    let first = match conn.recv().map(|bytes| GatewayMsg::decode(&bytes)) {
        Ok(Ok(msg)) => msg,
        Ok(Err(_)) => {
            fail_handshake("gateway.handshake.garbage");
            finish_span(ctx, span);
            return;
        }
        Err(_) => {
            fail_handshake("gateway.handshake.link");
            finish_span(ctx, span);
            return;
        }
    };
    match first {
        GatewayMsg::Hello { device_id } => {
            serve_oneshot(conn.as_mut(), device_id, ctx, &fail_handshake);
        }
        GatewayMsg::SessHello {
            device_id,
            session_id: None,
        } => {
            serve_session_handshake(
                conn.as_mut(),
                device_id,
                establish_deadline,
                ctx,
                &fail_handshake,
            );
        }
        GatewayMsg::SessHello {
            device_id,
            session_id: Some(sid),
        } => {
            serve_session_round(conn.as_mut(), device_id, sid, ctx, &fail_handshake);
        }
        _ => fail_handshake("gateway.handshake.garbage"),
    }
    metrics::histogram_record(
        "gateway.session_us",
        u64::try_from(session_start.elapsed().as_micros()).unwrap_or(u64::MAX),
    );
    finish_span(ctx, span);
}

/// Time left until `deadline`, if any.
fn remaining(deadline: Instant) -> Option<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    (left > Duration::ZERO).then_some(left)
}

/// Records a finished attestation attempt (one-shot session, handshake,
/// or in-session round): Bye, fleet ledger, ok/failed counters.
fn conclude(conn: &mut dyn Transport, device_id: u64, verified: bool, ctx: &GatewayShared) {
    let write_timeout = Duration::from_millis(ctx.config.write_timeout_ms);
    let _ = conn.set_deadline(Some(write_timeout));
    let _ = conn.send(&GatewayMsg::Bye { verified }.encode());
    record_conclusion(device_id, verified, ctx);
}

/// The driver-independent half of [`conclude`]: fleet ledger + ok/failed
/// counters. The reactor driver enqueues its own (non-blocking) `Bye` and
/// then calls this, so both drivers account outcomes identically.
fn record_conclusion(device_id: u64, verified: bool, ctx: &GatewayShared) {
    let now_ms = ctx.elapsed_ms();
    ctx.fleet
        .lock()
        .expect("fleet lock poisoned")
        .record_outcome(device_id as usize, verified, now_ms);
    if verified {
        ctx.stats.sessions_ok.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.sessions_ok", 1);
    } else {
        ctx.stats.sessions_failed.fetch_add(1, Ordering::SeqCst);
        metrics::counter_add("gateway.sessions_failed", 1);
    }
}

/// The classic one-shot path: a full [`SessionDriver`] exchange with
/// retries, every request carrying its own outer authenticator.
fn serve_oneshot(
    conn: &mut dyn Transport,
    hello: u64,
    ctx: &GatewayShared,
    fail_handshake: &dyn Fn(&'static str),
) {
    let write_timeout = Duration::from_millis(ctx.config.write_timeout_ms);
    let Some(entry) = ctx.directory.get(hello) else {
        fail_handshake("gateway.handshake.unknown_device");
        let _ = conn.set_deadline(Some(write_timeout));
        let _ = conn.send(&GatewayMsg::Bye { verified: false }.encode());
        return;
    };

    if entry.service_floor_ms > 0 {
        thread::sleep(Duration::from_millis(entry.service_floor_ms));
    }

    let policy = RetryPolicy {
        jitter_seed: ctx.config.retry.jitter_seed ^ hello,
        ..ctx.config.retry
    };
    let mut link = GatewayLink {
        conn: &mut *conn,
        entry,
        ctx,
        dead: false,
    };
    let report = SessionDriver::new(policy).run(&mut link);
    conclude(conn, hello, report.succeeded(), ctx);
}

/// Session establishment: the attested handshake. Every read draws down
/// `deadline` (the per-connection establishment budget), the embedded
/// attestation is full-scope, and the session enters the shared table
/// only after the response verifies.
fn serve_session_handshake(
    conn: &mut dyn Transport,
    device_id: u64,
    deadline: Instant,
    ctx: &GatewayShared,
    fail_handshake: &dyn Fn(&'static str),
) {
    let write_timeout = Duration::from_millis(ctx.config.write_timeout_ms);
    let Some(entry) = ctx.directory.get(device_id) else {
        fail_handshake("gateway.handshake.unknown_device");
        let _ = conn.set_deadline(Some(write_timeout));
        let _ = conn.send(&GatewayMsg::Bye { verified: false }.encode());
        return;
    };
    if entry.service_floor_ms > 0 {
        thread::sleep(Duration::from_millis(entry.service_floor_ms));
    }
    trace::set_now(ctx.elapsed_us());
    let hs_span = trace::span("gateway.handshake");

    let (init, request) = {
        let mut verifier = entry.verifier.lock().expect("verifier lock poisoned");
        let now = ctx.elapsed_ms().max(verifier.now_ms());
        verifier.set_time_ms(now);
        match channel::verifier_begin(&mut verifier, ctx.config.rekey_after_rounds) {
            Ok(pair) => pair,
            Err(_) => {
                fail_handshake("gateway.handshake.internal");
                finish_span(ctx, hs_span);
                return;
            }
        }
    };
    let _ = conn.set_deadline(Some(write_timeout));
    if conn
        .send(&GatewayMsg::SessInit(init.encode()).encode())
        .is_err()
    {
        fail_handshake("gateway.handshake.link");
        finish_span(ctx, hs_span);
        return;
    }

    // The accept read runs on whatever is left of the establishment
    // budget — a peer that stalls after SessInit is cut off here.
    let Some(left) = remaining(deadline) else {
        fail_handshake("gateway.handshake.deadline");
        finish_span(ctx, hs_span);
        return;
    };
    let _ = conn.set_deadline(Some(left));
    let accept = match conn.recv().map(|bytes| GatewayMsg::decode(&bytes)) {
        Ok(Ok(GatewayMsg::SessAccept(raw))) => match HandshakeAccept::decode(&raw) {
            Ok(accept) => accept,
            Err(_) => {
                fail_handshake("gateway.handshake.garbage");
                finish_span(ctx, hs_span);
                return;
            }
        },
        Ok(Ok(GatewayMsg::Reject(_))) => {
            // The prover's own defences refused the embedded attestation:
            // a completed (failed) attestation attempt, not a dead link.
            finish_span(ctx, hs_span);
            conclude(conn, device_id, false, ctx);
            return;
        }
        Ok(_) => {
            fail_handshake("gateway.handshake.garbage");
            finish_span(ctx, hs_span);
            return;
        }
        Err(_) => {
            fail_handshake("gateway.handshake.deadline");
            finish_span(ctx, hs_span);
            return;
        }
    };

    let confirmed = entry.confirm_session(&init, &request, &accept);
    finish_span(ctx, hs_span);
    match confirmed {
        Ok(chan) => {
            let now_ms = ctx.elapsed_ms();
            ctx.stats.sessions_opened.fetch_add(1, Ordering::SeqCst);
            ctx.stats.sessions_active.fetch_add(1, Ordering::SeqCst);
            metrics::counter_add("gateway.session.opened", 1);
            ctx.sessions
                .lock()
                .expect("session table lock poisoned")
                .insert(
                    SessionEntry {
                        device_id,
                        chan,
                        last_used_ms: now_ms,
                    },
                    ctx.config.session_capacity,
                    now_ms,
                    ctx.config.session_idle_ms,
                    &ctx.stats,
                );
            conclude(conn, device_id, true, ctx);
        }
        Err(_) => {
            metrics::counter_add("gateway.session.confirm_failed", 1);
            conclude(conn, device_id, false, ctx);
        }
    }
}

/// One cheap in-session attestation round over an established session:
/// unsigned inner request out, sealed frame back, lockstep rekey when
/// the cadence is reached. Any irregularity fails closed — the session
/// is torn down (evicted) and the prover must re-handshake.
fn serve_session_round(
    conn: &mut dyn Transport,
    device_id: u64,
    sid: [u8; channel::SESSION_ID_SIZE],
    ctx: &GatewayShared,
    fail_handshake: &dyn Fn(&'static str),
) {
    let write_timeout = Duration::from_millis(ctx.config.write_timeout_ms);
    let read_timeout = Duration::from_millis(ctx.config.read_timeout_ms);
    let Some(entry) = ctx.directory.get(device_id) else {
        fail_handshake("gateway.handshake.unknown_device");
        let _ = conn.set_deadline(Some(write_timeout));
        let _ = conn.send(&GatewayMsg::Bye { verified: false }.encode());
        return;
    };
    let now_ms = ctx.elapsed_ms();
    let Some(mut session) = ctx
        .sessions
        .lock()
        .expect("session table lock poisoned")
        .take(
            device_id,
            sid,
            now_ms,
            ctx.config.session_idle_ms,
            &ctx.stats,
        )
    else {
        // Unknown/expired/foreign session id: cheap reject, no key
        // material consulted, the prover re-handshakes.
        fail_handshake("gateway.session.expired_lookup");
        let _ = conn.set_deadline(Some(write_timeout));
        let _ = conn.send(&GatewayMsg::Reject(RejectReason::SessionExpired).encode());
        let _ = conn.send(&GatewayMsg::Bye { verified: false }.encode());
        return;
    };
    if entry.service_floor_ms > 0 {
        thread::sleep(Duration::from_millis(entry.service_floor_ms));
    }
    trace::set_now(ctx.elapsed_us());
    let round_span = trace::span("gateway.session_round");

    // The taken-out session is torn down (fail closed) unless the round
    // completes verified; only then is it reinserted.
    let teardown = |label: &'static str| {
        ctx.stats.sessions_evicted.fetch_add(1, Ordering::SeqCst);
        ctx.stats.sessions_active.fetch_sub(1, Ordering::SeqCst);
        metrics::counter_add("gateway.session.evicted", 1);
        metrics::counter_add(label, 1);
    };

    let request = {
        let mut verifier = entry.verifier.lock().expect("verifier lock poisoned");
        let now = ctx.elapsed_ms().max(verifier.now_ms());
        verifier.set_time_ms(now);
        match verifier.make_session_request() {
            Ok(r) => r,
            Err(_) => {
                teardown("gateway.session.internal");
                finish_span(ctx, round_span);
                conclude(conn, device_id, false, ctx);
                return;
            }
        }
    };
    let payload = GatewayMsg::AttReq(request.to_bytes()).encode();
    let frame = session.chan.seal_next(&payload);
    let _ = conn.set_deadline(Some(write_timeout));
    if conn.send(&GatewayMsg::SessFrame(frame).encode()).is_err() {
        teardown("gateway.session.link");
        finish_span(ctx, round_span);
        conclude(conn, device_id, false, ctx);
        return;
    }

    let _ = conn.set_deadline(Some(read_timeout));
    let reply = match conn.recv().map(|bytes| GatewayMsg::decode(&bytes)) {
        Ok(Ok(msg)) => msg,
        _ => {
            teardown("gateway.session.link");
            finish_span(ctx, round_span);
            conclude(conn, device_id, false, ctx);
            return;
        }
    };
    // Downgrade defence: inside a session only sealed frames count. A
    // plain AttResp (an attacker stripping the channel) is refused
    // *before* any session-key work.
    let GatewayMsg::SessFrame(sealed) = reply else {
        teardown("gateway.session.downgrade");
        finish_span(ctx, round_span);
        conclude(conn, device_id, false, ctx);
        return;
    };
    let inner = match session.chan.open(&sealed) {
        Ok(inner) => inner,
        Err(e) => {
            let label = match e.reject_reason() {
                Some(RejectReason::SessionReplay) => "gateway.session.replay",
                _ => "gateway.session.auth_fail",
            };
            teardown(label);
            finish_span(ctx, round_span);
            conclude(conn, device_id, false, ctx);
            return;
        }
    };
    let verified = match GatewayMsg::decode(&inner) {
        Ok(GatewayMsg::AttResp(raw)) => match AttestResponse::from_bytes(&raw) {
            Ok(response) => entry.check_and_note(&request, &response),
            Err(_) => false,
        },
        Ok(GatewayMsg::Reject(_)) => {
            let mut verifier = entry.verifier.lock().expect("verifier lock poisoned");
            verifier.note_failed(&request);
            false
        }
        _ => false,
    };
    if verified {
        if session.chan.note_round() {
            // Deterministic lockstep ratchet: the old epoch retires as
            // "rekeyed", its successor counts as newly opened.
            ctx.stats.sessions_rekeyed.fetch_add(1, Ordering::SeqCst);
            ctx.stats.sessions_opened.fetch_add(1, Ordering::SeqCst);
            metrics::counter_add("gateway.session.rekeyed", 1);
            trace::set_now(ctx.elapsed_us());
            let rekey_span = trace::span("gateway.rekey");
            finish_span(ctx, rekey_span);
        }
        session.last_used_ms = ctx.elapsed_ms();
        ctx.sessions
            .lock()
            .expect("session table lock poisoned")
            .insert(
                session,
                ctx.config.session_capacity,
                ctx.elapsed_ms(),
                ctx.config.session_idle_ms,
                &ctx.stats,
            );
    } else {
        teardown("gateway.session.round_failed");
    }
    finish_span(ctx, round_span);
    conclude(conn, device_id, verified, ctx);
}

fn finish_span(ctx: &GatewayShared, span: proverguard_telemetry::trace::SpanGuard) {
    trace::set_now(ctx.elapsed_us());
    drop(span);
}

/// [`SessionLink`] over one accepted connection: real frames out, real
/// deadlines, real sleeps for backoff.
struct GatewayLink<'a> {
    conn: &'a mut dyn Transport,
    entry: &'a DeviceEntry,
    ctx: &'a GatewayShared,
    /// Set once the link is unrecoverable (peer gone, stream poisoned);
    /// later attempts fail instantly instead of burning timeouts.
    dead: bool,
}

impl SessionLink for GatewayLink<'_> {
    fn attempt(&mut self, timeout_ms: u64) -> AttemptOutcome {
        if self.dead {
            return AttemptOutcome::RequestLost;
        }
        let request = {
            let mut verifier = self.entry.verifier.lock().expect("verifier lock poisoned");
            // Keep the verifier clock in step with gateway wall time so
            // timestamp-freshness fleets work over real links.
            let now = self.ctx.elapsed_ms().max(verifier.now_ms());
            verifier.set_time_ms(now);
            match verifier.make_request() {
                Ok(r) => r,
                Err(e) => return AttemptOutcome::Error(e),
            }
        };
        let deadline = Duration::from_millis(timeout_ms.max(1));
        if self.conn.set_deadline(Some(deadline)).is_err() {
            self.dead = true;
            return AttemptOutcome::RequestLost;
        }
        if let Err(e) = self
            .conn
            .send(&GatewayMsg::AttReq(request.to_bytes()).encode())
        {
            self.dead = !e.is_transient();
            return AttemptOutcome::RequestLost;
        }
        match self.conn.recv() {
            Ok(bytes) => match GatewayMsg::decode(&bytes) {
                Ok(GatewayMsg::AttResp(raw)) => {
                    let Ok(response) = AttestResponse::from_bytes(&raw) else {
                        return AttemptOutcome::BadResponse;
                    };
                    if self.entry.check_and_note(&request, &response) {
                        AttemptOutcome::Success
                    } else {
                        AttemptOutcome::BadResponse
                    }
                }
                Ok(GatewayMsg::Reject(reason)) => {
                    let mut verifier = self.entry.verifier.lock().expect("verifier lock poisoned");
                    verifier.note_failed(&request);
                    AttemptOutcome::Rejected(reason)
                }
                _ => AttemptOutcome::BadResponse,
            },
            Err(TransportError::Timeout) => AttemptOutcome::ResponseLost,
            Err(TransportError::Malformed { .. } | TransportError::TooLarge { .. }) => {
                // Stream poisoned by garbage — no point retrying.
                self.dead = true;
                AttemptOutcome::BadResponse
            }
            Err(_) => {
                self.dead = true;
                AttemptOutcome::ResponseLost
            }
        }
    }

    fn wait_ms(&mut self, ms: u64) {
        if !self.dead {
            thread::sleep(Duration::from_millis(
                ms.min(self.ctx.config.backoff_cap_ms),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Prover agent (client side)
// ---------------------------------------------------------------------------

/// How one prover-side gateway session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentOutcome {
    /// The gateway drove the session to completion and said goodbye.
    Served {
        /// Attestation requests the prover processed (incl. rejected).
        requests_handled: u32,
        /// What the gateway's `Bye` said about the final attempt.
        verified: bool,
    },
    /// The gateway shed the connection with `Busy`.
    Busy,
    /// The link died (timeout, hangup, I/O error).
    ConnectionLost,
    /// The gateway spoke something that is not the protocol.
    ProtocolError,
    /// The named session is gone at the gateway (idle-expired, evicted,
    /// or never known) or desynced: the agent dropped its local session
    /// state and must re-handshake.
    /// [`ProverAgent::attest_with_retry`] does so transparently.
    SessionExpired,
}

impl AgentOutcome {
    /// `true` iff the session completed with a verified attestation.
    #[must_use]
    pub fn is_verified(&self) -> bool {
        matches!(self, AgentOutcome::Served { verified: true, .. })
    }
}

/// The prover side of the gateway protocol: dials in, answers `AttReq`
/// frames with the device's real [`Prover`] pipeline (so every paper
/// defence — auth, freshness, admission — applies on the wire), and obeys
/// `Busy`.
#[derive(Debug)]
pub struct ProverAgent {
    prover: Prover,
    device_id: u64,
    /// `true` → dial with `SessHello` and ride the secure channel;
    /// `false` → classic one-shot protocol.
    session_mode: bool,
    /// The live prover-side channel state. Volatile by design: a device
    /// reboot loses it (session keys live in RAM, never in NV), which is
    /// exactly what makes the mid-session-reboot story safe — the sealed
    /// freshness record survives, the session keys do not.
    session: Option<SecureChannel>,
}

impl ProverAgent {
    /// An agent for `prover`, registered as `device_id` at the gateway.
    #[must_use]
    pub fn new(prover: Prover, device_id: u64) -> Self {
        ProverAgent {
            prover,
            device_id,
            session_mode: false,
            session: None,
        }
    }

    /// A session-mode agent: dials with `SessHello`, runs the attested
    /// handshake once, then rides cheap sealed session rounds.
    #[must_use]
    pub fn with_sessions(prover: Prover, device_id: u64) -> Self {
        ProverAgent {
            prover,
            device_id,
            session_mode: true,
            session: None,
        }
    }

    /// The wrapped prover.
    #[must_use]
    pub fn prover(&self) -> &Prover {
        &self.prover
    }

    /// Mutable access (e.g. to install an admission policy).
    pub fn prover_mut(&mut self) -> &mut Prover {
        &mut self.prover
    }

    /// The live session's public id, if one is established.
    #[must_use]
    pub fn session_id(&self) -> Option<[u8; channel::SESSION_ID_SIZE]> {
        self.session.as_ref().map(SecureChannel::session_id)
    }

    /// Removes and returns the live session state (adversary probes use
    /// this to capture keys for cross-session-reuse attempts).
    pub fn take_session(&mut self) -> Option<SecureChannel> {
        self.session.take()
    }

    /// Installs session state (adversary probes: stale or foreign keys).
    pub fn install_session(&mut self, session: SecureChannel) {
        self.session = Some(session);
    }

    /// Reboots the device through the prover's recovery-boot path and
    /// drops the volatile session state, like a real power cycle: the
    /// sealed freshness record is restored from NV, the session keys are
    /// gone. The next dial re-handshakes from scratch.
    ///
    /// # Errors
    ///
    /// As [`Prover::reboot`].
    pub fn reboot(&mut self) -> Result<crate::persist::RecoveryOutcome, AttestError> {
        self.session = None;
        self.prover.reboot()
    }

    /// Runs one session over an established connection.
    pub fn run_session(&mut self, conn: &mut dyn Transport, io_timeout: Duration) -> AgentOutcome {
        if self.session_mode {
            return self.run_secure_session(conn, io_timeout);
        }
        self.run_oneshot(conn, io_timeout)
    }

    fn run_oneshot(&mut self, conn: &mut dyn Transport, io_timeout: Duration) -> AgentOutcome {
        if conn.set_deadline(Some(io_timeout)).is_err() {
            return AgentOutcome::ConnectionLost;
        }
        let hello = GatewayMsg::Hello {
            device_id: self.device_id,
        };
        if conn.send(&hello.encode()).is_err() {
            // The gateway may have shed this connection before reading a
            // byte — a Busy (or Bye) frame can already be queued on our
            // side even though the peer is gone.
            return drain_outcome(conn, 0);
        }
        let mut requests_handled = 0u32;
        let session_start = Instant::now();
        let mut last_seen = Duration::ZERO;
        loop {
            let bytes = match conn.recv() {
                Ok(bytes) => bytes,
                Err(_) => return AgentOutcome::ConnectionLost,
            };
            // Real wall time passed while we waited; let it pass for the
            // prover's simulated clock too (freshness windows, admission
            // refill).
            let elapsed = session_start.elapsed();
            let delta_ms = (elapsed - last_seen).as_millis() as u64;
            last_seen = elapsed;
            if delta_ms > 0 {
                let _ = self.prover.advance_time_ms(delta_ms);
            }
            match GatewayMsg::decode(&bytes) {
                Ok(GatewayMsg::AttReq(raw)) => {
                    let reply = match self.prover.handle_wire_request(&raw) {
                        Ok(resp) => GatewayMsg::AttResp(resp),
                        Err(AttestError::Rejected(reason)) => GatewayMsg::Reject(reason),
                        Err(_) => GatewayMsg::Reject(RejectReason::Malformed),
                    };
                    requests_handled += 1;
                    if conn.send(&reply.encode()).is_err() {
                        // The gateway may have timed this attempt out and
                        // hung up with a queued Bye.
                        return drain_outcome(conn, requests_handled);
                    }
                }
                Ok(GatewayMsg::Command(raw)) => {
                    let reply = match crate::services::CommandRequest::from_bytes(&raw)
                        .and_then(|request| self.prover.handle_command(&request))
                    {
                        Ok(receipt) => GatewayMsg::Receipt(receipt.to_bytes()),
                        Err(AttestError::Rejected(reason)) => GatewayMsg::Reject(reason),
                        Err(AttestError::MalformedMessage { .. }) => {
                            GatewayMsg::Reject(RejectReason::Malformed)
                        }
                        // A torn flash (injected power loss) kills the
                        // device, not the protocol: the connection just
                        // drops, like the real board browning out.
                        Err(AttestError::PowerLoss) => return AgentOutcome::ConnectionLost,
                        Err(_) => GatewayMsg::Reject(RejectReason::Malformed),
                    };
                    requests_handled += 1;
                    if conn.send(&reply.encode()).is_err() {
                        return drain_outcome(conn, requests_handled);
                    }
                }
                Ok(GatewayMsg::Busy) => return AgentOutcome::Busy,
                Ok(GatewayMsg::Bye { verified }) => {
                    return AgentOutcome::Served {
                        requests_handled,
                        verified,
                    }
                }
                _ => return AgentOutcome::ProtocolError,
            }
        }
    }

    /// Session-mode connection: attested handshake when no session is
    /// live, one sealed attestation round when one is. Frame MAC work is
    /// charged to the device's cycle clock (`prover.session_auth` /
    /// `prover.session_seal` spans) — that small HMAC *is* the per-round
    /// auth cost the session amortizes the one-shot outer MAC down to.
    fn run_secure_session(
        &mut self,
        conn: &mut dyn Transport,
        io_timeout: Duration,
    ) -> AgentOutcome {
        if conn.set_deadline(Some(io_timeout)).is_err() {
            return AgentOutcome::ConnectionLost;
        }
        let resumed = self.session_id();
        let hello = GatewayMsg::SessHello {
            device_id: self.device_id,
            session_id: resumed,
        };
        if conn.send(&hello.encode()).is_err() {
            return drain_outcome(conn, 0);
        }
        let mut requests_handled = 0u32;
        let mut in_round = false;
        let session_start = Instant::now();
        let mut last_seen = Duration::ZERO;
        loop {
            let bytes = match conn.recv() {
                Ok(bytes) => bytes,
                Err(_) => return AgentOutcome::ConnectionLost,
            };
            let elapsed = session_start.elapsed();
            let delta_ms = (elapsed - last_seen).as_millis() as u64;
            last_seen = elapsed;
            if delta_ms > 0 {
                let _ = self.prover.advance_time_ms(delta_ms);
            }
            match GatewayMsg::decode(&bytes) {
                Ok(GatewayMsg::SessInit(raw)) if resumed.is_none() => {
                    let Ok(init) = HandshakeInit::decode(&raw) else {
                        return AgentOutcome::ProtocolError;
                    };
                    requests_handled += 1;
                    match channel::prover_accept(&mut self.prover, &init) {
                        Ok((accept, chan)) => {
                            self.session = Some(chan);
                            let msg = GatewayMsg::SessAccept(accept.encode());
                            if conn.send(&msg.encode()).is_err() {
                                return drain_outcome(conn, requests_handled);
                            }
                        }
                        Err(AttestError::Rejected(reason)) => {
                            if conn.send(&GatewayMsg::Reject(reason).encode()).is_err() {
                                return drain_outcome(conn, requests_handled);
                            }
                        }
                        Err(AttestError::PowerLoss) => return AgentOutcome::ConnectionLost,
                        Err(_) => {
                            let msg = GatewayMsg::Reject(RejectReason::Malformed);
                            if conn.send(&msg.encode()).is_err() {
                                return drain_outcome(conn, requests_handled);
                            }
                        }
                    }
                }
                Ok(GatewayMsg::SessFrame(raw)) if self.session.is_some() => {
                    // Cheap per-message auth: one short HMAC over the
                    // frame, charged to the device clock.
                    let open_cycles = self
                        .prover
                        .mcu()
                        .cost_table()
                        .mac_cost(MacAlgorithm::HmacSha1, raw.len());
                    let session = self.session.as_mut().expect("session checked above");
                    let opened =
                        self.prover
                            .charge_stage("prover.session_auth", open_cycles, |_| {
                                session.open(&raw)
                            });
                    let payload = match opened {
                        Ok(payload) => payload,
                        Err(e) => {
                            // A frame our own keys cannot open: replay
                            // (drop it, stay alive) or desync/forgery
                            // (fail closed, force a re-handshake).
                            let reason = e.reject_reason().unwrap_or(RejectReason::Malformed);
                            if reason == RejectReason::SessionReplay {
                                let msg = GatewayMsg::Reject(reason);
                                if conn.send(&msg.encode()).is_err() {
                                    return drain_outcome(conn, requests_handled);
                                }
                                continue;
                            }
                            self.session = None;
                            let _ = conn.send(&GatewayMsg::Reject(reason).encode());
                            return AgentOutcome::SessionExpired;
                        }
                    };
                    let reply = match GatewayMsg::decode(&payload) {
                        Ok(GatewayMsg::AttReq(req_raw)) => {
                            requests_handled += 1;
                            in_round = true;
                            match self.prover.handle_session_wire_request(&req_raw) {
                                Ok(resp) => GatewayMsg::AttResp(resp),
                                Err(AttestError::Rejected(reason)) => GatewayMsg::Reject(reason),
                                Err(AttestError::PowerLoss) => return AgentOutcome::ConnectionLost,
                                Err(_) => GatewayMsg::Reject(RejectReason::Malformed),
                            }
                        }
                        _ => return AgentOutcome::ProtocolError,
                    };
                    let inner = reply.encode();
                    let seal_cycles = self
                        .prover
                        .mcu()
                        .cost_table()
                        .mac_cost(MacAlgorithm::HmacSha1, inner.len());
                    let session = self.session.as_mut().expect("session checked above");
                    let frame =
                        self.prover
                            .charge_stage("prover.session_seal", seal_cycles, |_| {
                                session.seal_next(&inner)
                            });
                    if conn.send(&GatewayMsg::SessFrame(frame).encode()).is_err() {
                        return drain_outcome(conn, requests_handled);
                    }
                }
                Ok(GatewayMsg::AttReq(_) | GatewayMsg::Command(_)) => {
                    // Downgrade-to-one-shot: a session-mode agent never
                    // answers bare requests. Refused before any pipeline
                    // or key-schedule work.
                    let _ = conn.send(&GatewayMsg::Reject(RejectReason::SessionAuth).encode());
                    return AgentOutcome::ProtocolError;
                }
                Ok(GatewayMsg::Reject(RejectReason::SessionExpired)) => {
                    self.session = None;
                    return AgentOutcome::SessionExpired;
                }
                Ok(GatewayMsg::Busy) => return AgentOutcome::Busy,
                Ok(GatewayMsg::Bye { verified }) => {
                    if verified && in_round {
                        // Lockstep rekey: count the verified round exactly
                        // when the gateway does. A lost Bye desyncs the
                        // ratchet and the next round fails closed into a
                        // re-handshake — never an accepted forgery.
                        if let Some(session) = self.session.as_mut() {
                            session.note_round();
                        }
                    }
                    return AgentOutcome::Served {
                        requests_handled,
                        verified,
                    };
                }
                _ => return AgentOutcome::ProtocolError,
            }
        }
    }

    /// Dials, runs a session, and retries `Busy` shed with the jittered
    /// backoff of `policy` (each sleep capped at `busy_cap_ms`). Gives up
    /// after `policy.max_retries` re-dials. A [`AgentOutcome::
    /// SessionExpired`] verdict triggers one transparent re-handshake
    /// dial (the local session state is already dropped, so the next dial
    /// opens fresh) without consuming the busy budget.
    pub fn attest_with_retry<F>(
        &mut self,
        mut connect: F,
        policy: &RetryPolicy,
        io_timeout: Duration,
        busy_cap_ms: u64,
    ) -> AgentOutcome
    where
        F: FnMut() -> Result<Box<dyn Transport>, TransportError>,
    {
        let total = policy.max_retries + 1;
        let mut attempt = 1;
        let mut rehandshaken = false;
        loop {
            let mut conn = match connect() {
                Ok(conn) => conn,
                Err(_) => return AgentOutcome::ConnectionLost,
            };
            match self.run_session(conn.as_mut(), io_timeout) {
                AgentOutcome::Busy => {
                    if attempt >= total {
                        return AgentOutcome::Busy;
                    }
                    let nap = policy.backoff_ms(attempt).min(busy_cap_ms);
                    thread::sleep(Duration::from_millis(nap));
                    let _ = self.prover.advance_time_ms(nap);
                    attempt += 1;
                }
                AgentOutcome::SessionExpired if !rehandshaken => {
                    rehandshaken = true;
                }
                outcome => return outcome,
            }
        }
    }
}

/// Reads out whatever verdict frames the gateway left behind after a
/// failed send (the peer hangs up right after writing `Busy`/`Bye`, so
/// the frames outlive the connection).
fn drain_outcome(conn: &mut dyn Transport, requests_handled: u32) -> AgentOutcome {
    loop {
        match conn.recv().map(|bytes| GatewayMsg::decode(&bytes)) {
            Ok(Ok(GatewayMsg::Busy)) => return AgentOutcome::Busy,
            Ok(Ok(GatewayMsg::Bye { verified })) => {
                return AgentOutcome::Served {
                    requests_handled,
                    verified,
                }
            }
            Ok(Ok(_)) => continue, // stale in-session frame
            Ok(Err(_)) => return AgentOutcome::ProtocolError,
            Err(_) => return AgentOutcome::ConnectionLost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::ProverConfig;
    use proverguard_transport::frame::DEFAULT_MAX_FRAME;
    use proverguard_transport::mem::LoopbackHub;

    const KEY: [u8; 16] = [0x42; 16];

    fn provisioned(config: &ProverConfig) -> (Prover, Verifier) {
        let prover = Prover::provision(config.clone(), &KEY, b"app v1").unwrap();
        let verifier = Verifier::new(config, &KEY).unwrap();
        (prover, verifier)
    }

    #[test]
    fn wire_msgs_roundtrip() {
        let msgs = [
            GatewayMsg::Hello { device_id: 7 },
            GatewayMsg::AttReq(vec![1, 2, 3]),
            GatewayMsg::AttResp(vec![]),
            GatewayMsg::Reject(RejectReason::StaleCounter),
            GatewayMsg::Busy,
            GatewayMsg::Bye { verified: true },
            GatewayMsg::Bye { verified: false },
            GatewayMsg::SessHello {
                device_id: 3,
                session_id: None,
            },
            GatewayMsg::SessHello {
                device_id: 3,
                session_id: Some([9; channel::SESSION_ID_SIZE]),
            },
            GatewayMsg::SessInit(vec![4, 5]),
            GatewayMsg::SessAccept(vec![]),
            GatewayMsg::SessFrame(vec![6; 40]),
        ];
        for msg in msgs {
            assert_eq!(GatewayMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn wire_msgs_reject_garbage_without_panicking() {
        let bad: &[&[u8]] = &[
            &[],
            &[0],
            &[99, 1, 2],
            &[TAG_HELLO],                                    // truncated id
            &[TAG_HELLO, 1, 2, 3],                           // short id
            &[TAG_REJECT],                                   // missing code
            &[TAG_REJECT, 200],                              // unknown code
            &[TAG_BUSY, 1],                                  // busy with body
            &[TAG_BYE],                                      // missing flag
            &[TAG_BYE, 1, 2],                                // long flag
            &[TAG_SESS_HELLO],                               // no id
            &[TAG_SESS_HELLO, 0, 0, 0, 0, 0, 0, 0, 1],       // missing flag byte
            &[TAG_SESS_HELLO, 0, 0, 0, 0, 0, 0, 0, 1, 2],    // unknown flag
            &[TAG_SESS_HELLO, 0, 0, 0, 0, 0, 0, 0, 1, 1, 9], // short sid
            &[TAG_SESS_HELLO, 0, 0, 0, 0, 0, 0, 0, 1, 0, 9], // trailing after none
        ];
        for bytes in bad {
            assert!(
                matches!(
                    GatewayMsg::decode(bytes),
                    Err(AttestError::MalformedMessage { .. })
                ),
                "{bytes:?} should be malformed"
            );
        }
    }

    #[test]
    fn every_reject_reason_roundtrips() {
        for reason in [
            RejectReason::BadAuth,
            RejectReason::NonceReused,
            RejectReason::StaleCounter,
            RejectReason::TimestampNotMonotonic,
            RejectReason::TimestampOutOfWindow,
            RejectReason::FreshnessKindMismatch,
            RejectReason::Malformed,
            RejectReason::Throttled,
            RejectReason::DegradedMode,
            RejectReason::ScopeUnsupported,
            RejectReason::SessionExpired,
            RejectReason::SessionReplay,
            RejectReason::SessionAuth,
        ] {
            let msg = GatewayMsg::Reject(reason);
            assert_eq!(GatewayMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn gateway_serves_honest_sessions_over_loopback() {
        let config = ProverConfig::recommended();
        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        let mut directory = DeviceDirectory::new();
        let mut agents = Vec::new();
        for id in 0..3u64 {
            let (prover, verifier) = provisioned(&config);
            let expected = prover.expected_memory().to_vec();
            assert_eq!(directory.register(verifier, expected), id);
            agents.push(ProverAgent::new(prover, id));
        }
        let handle = Gateway::start(
            Box::new(hub),
            directory,
            GatewayConfig {
                workers: 2,
                // Debug-build memory MACs are slow; don't let a loaded CI
                // machine turn compute time into spurious retries.
                retry: RetryPolicy {
                    timeout_ms: 10_000,
                    ..GatewayConfig::default().retry
                },
                ..GatewayConfig::default()
            },
        );

        for agent in &mut agents {
            for _ in 0..2 {
                let mut conn = connector.connect().unwrap();
                let outcome = agent.run_session(&mut conn, Duration::from_secs(5));
                assert!(outcome.is_verified(), "honest session failed: {outcome:?}");
            }
        }

        let report = handle.shutdown();
        assert_eq!(report.stats.sessions_ok, 6);
        assert_eq!(report.stats.sessions_failed, 0);
        assert_eq!(report.stats.handshake_failed, 0);
        assert!(report.stats.partition_holds(), "{:?}", report.stats);
        // At least the per-session "gateway.session" span each; crypto
        // stages inside the workers add more.
        assert!(report.spans >= 6, "spans = {}", report.spans);
        assert_eq!(report.dropped_spans, 0);
        assert_eq!(report.metrics.counter("gateway.sessions_ok"), Some(6));
        let hist = report.metrics.histogram("gateway.session_us").unwrap();
        assert_eq!(hist.count(), 6);
        // Transport byte counters crossed the thread boundary too.
        assert!(report.metrics.counter("transport.bytes_in").unwrap_or(0) > 0);
    }

    #[test]
    fn secure_sessions_handshake_round_rekey_and_expire() {
        use crate::verifier::ScopePolicy;

        let config = ProverConfig::recommended_segmented();
        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        let prover = Prover::provision(config.clone(), &KEY, b"app v1").unwrap();
        let mut verifier = Verifier::new(&config, &KEY).unwrap();
        verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
        let mut directory = DeviceDirectory::new();
        directory.register(verifier, prover.expected_memory().to_vec());
        let handle = Gateway::start(
            Box::new(hub),
            directory,
            GatewayConfig {
                workers: 2,
                read_timeout_ms: 10_000,
                rekey_after_rounds: 2,
                ..GatewayConfig::default()
            },
        );
        let mut agent = ProverAgent::with_sessions(prover, 0);

        // Dial 1: attested handshake (full-scope attest inside).
        let mut conn = connector.connect().unwrap();
        let outcome = agent.run_session(&mut conn, Duration::from_secs(30));
        assert!(outcome.is_verified(), "handshake failed: {outcome:?}");
        let sid = agent.session_id().expect("session established");

        // Dials 2..=5: cheap sealed History rounds; cadence 2 → rekeys.
        for round in 0..4 {
            let mut conn = connector.connect().unwrap();
            let outcome = agent.run_session(&mut conn, Duration::from_secs(30));
            assert!(outcome.is_verified(), "round {round} failed: {outcome:?}");
            assert_eq!(agent.session_id(), Some(sid), "session id is stable");
        }

        // A forgotten session id must be rejected cheaply and the retry
        // wrapper must transparently re-handshake.
        let stale = agent.take_session().unwrap();
        let mut desynced = stale.clone();
        for _ in 0..3 {
            desynced.note_round(); // force epoch ahead of the gateway's
        }
        agent.install_session(desynced);
        let outcome = agent.attest_with_retry(
            || {
                connector
                    .connect()
                    .map(|c| Box::new(c) as Box<dyn Transport>)
            },
            &RetryPolicy::default(),
            Duration::from_secs(30),
            100,
        );
        assert!(outcome.is_verified(), "re-handshake failed: {outcome:?}");
        assert_ne!(agent.session_id(), Some(sid), "fresh session after desync");

        let report = handle.shutdown();
        // 1 handshake + 4 rounds + (1 failed desynced round + 1 fresh
        // handshake) = 6 ok, 1 failed.
        assert_eq!(report.stats.sessions_ok, 6, "{:?}", report.stats);
        assert_eq!(report.stats.sessions_failed, 1, "{:?}", report.stats);
        assert!(report.stats.partition_holds(), "{:?}", report.stats);
        assert!(
            report.stats.session_partition_holds(),
            "session partition: {:?}",
            report.stats
        );
        assert!(report.stats.sessions_rekeyed >= 2, "{:?}", report.stats);
        assert_eq!(report.stats.sessions_active, 1, "{:?}", report.stats);
        assert!(
            report
                .metrics
                .counter("gateway.session.opened")
                .unwrap_or(0)
                >= 2
        );
        assert!(
            report
                .metrics
                .counter("gateway.session.rekeyed")
                .unwrap_or(0)
                >= 2
        );
    }

    #[test]
    fn unknown_device_and_garbage_hello_fail_handshake() {
        let config = ProverConfig::recommended();
        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        let (prover, verifier) = provisioned(&config);
        let mut directory = DeviceDirectory::new();
        directory.register(verifier, prover.expected_memory().to_vec());
        let handle = Gateway::start(
            Box::new(hub),
            directory,
            GatewayConfig {
                workers: 1,
                read_timeout_ms: 200,
                ..GatewayConfig::default()
            },
        );

        // Unknown device id: polite Bye{false}.
        let mut conn = connector.connect().unwrap();
        conn.set_deadline(Some(Duration::from_secs(5))).unwrap();
        conn.send(&GatewayMsg::Hello { device_id: 99 }.encode())
            .unwrap();
        assert_eq!(
            GatewayMsg::decode(&conn.recv().unwrap()).unwrap(),
            GatewayMsg::Bye { verified: false }
        );

        // Garbage instead of Hello: connection just closes.
        let mut conn = connector.connect().unwrap();
        conn.send(b"not a gateway message").unwrap();
        conn.set_deadline(Some(Duration::from_secs(5))).unwrap();
        assert!(conn.recv().is_err());

        let report = handle.shutdown();
        assert_eq!(report.stats.handshake_failed, 2);
        assert_eq!(report.stats.sessions_total(), 0);
        assert!(report.stats.partition_holds());
    }

    #[test]
    fn full_queue_sheds_with_busy_and_honest_retry_gets_through() {
        let config = ProverConfig::recommended();
        let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
        let mut directory = DeviceDirectory::new();
        let (prover, verifier) = provisioned(&config);
        // A slow device pins the single worker for ~150 ms per session.
        directory.register_with_floor(verifier, prover.expected_memory().to_vec(), 150);
        let handle = Gateway::start(
            Box::new(hub),
            directory,
            GatewayConfig {
                workers: 1,
                queue_depth: 1,
                retry: RetryPolicy {
                    timeout_ms: 10_000,
                    ..GatewayConfig::default().retry
                },
                ..GatewayConfig::default()
            },
        );
        let mut agent = ProverAgent::new(prover, 0);

        // Pin the single worker with a silent connection (it blocks on the
        // Hello read timeout), then fill the 1-slot queue with another.
        let pin_worker = connector.connect().unwrap();
        thread::sleep(Duration::from_millis(50));
        let pin_queue = connector.connect().unwrap();
        thread::sleep(Duration::from_millis(50));
        // An honest dial now must be shed with a cheap Busy frame.
        let mut conn = connector.connect().unwrap();
        let outcome = agent.run_session(&mut conn, Duration::from_secs(30));
        assert_eq!(outcome, AgentOutcome::Busy);

        // With retries, the same agent eventually lands a verified
        // session (the dropped pinning connections free the worker).
        drop(pin_worker);
        drop(pin_queue);
        let policy = RetryPolicy {
            max_retries: 20,
            backoff_base_ms: 25,
            backoff_factor: 1,
            ..RetryPolicy::default()
        };
        let outcome = agent.attest_with_retry(
            || {
                connector
                    .connect()
                    .map(|c| Box::new(c) as Box<dyn Transport>)
            },
            &policy,
            Duration::from_secs(30),
            100,
        );
        assert!(outcome.is_verified(), "retrying agent failed: {outcome:?}");

        let report = handle.shutdown();
        assert!(report.stats.busy_rejected >= 1, "{:?}", report.stats);
        assert_eq!(report.stats.sessions_ok, 1);
        assert!(report.stats.partition_holds(), "{:?}", report.stats);
        assert_eq!(
            report.metrics.counter("gateway.busy"),
            report.stats.busy_rejected.into()
        );
    }
}
