//! Seeded inputs and fleet set-up: the devices that play clients, the
//! gateway-side [`DeviceDirectory`] that serves them, and the warm-up
//! that brings both to steady state before anything is timed.

use std::sync::Arc;
use std::time::Duration;

use proverguard_attest::channel;
use proverguard_attest::gateway::{DeviceDirectory, Gateway, GatewayConfig, GatewayHandle};
use proverguard_attest::message::AttestResponse;
use proverguard_attest::prover::{CostBreakdown, Prover, ProverConfig};
use proverguard_attest::session::RetryPolicy;
use proverguard_attest::verifier::{ScopePolicy, Verifier};
use proverguard_attest::ProverAgent;
use proverguard_transport::{LoopbackConnector, LoopbackHub, DEFAULT_MAX_FRAME};

use crate::responder::{Firmware, Responder};
use crate::wire;

/// Client threads, and so client connections in flight (closed loop).
pub const CLIENTS: usize = 2;

/// Firmware images shared by the fleet of every workload.
pub const IMAGES: usize = 3;

/// Bytes of one `oneshot_segmented` image (16 segments of 8 KiB).
pub const SEGMENTED_IMAGE_LEN: usize = 128 * 1024;

/// Bytes of the application image flashed into each real prover.
const APP_IMAGE_LEN: usize = 4 * 1024;

/// Read, write and attempt deadline of the gateway and the clients. Only
/// deadlines are tuned: everything else is `GatewayConfig::default()`.
pub const IO_TIMEOUT_MS: u64 = 10_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 real provers, one-shot Whole-scope attestation of 512 KiB.
    OneshotWhole,
    /// 1,024 devices on 3 images of 128 KiB, answered by [`Responder`]s.
    OneshotSegmented,
    /// 32 real provers, one sealed History round per established session.
    SessionHistory,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::OneshotWhole,
        Workload::OneshotSegmented,
        Workload::SessionHistory,
    ];

    /// Parses a workload name as given on the command line.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotWhole => "oneshot_whole",
            Workload::OneshotSegmented => "oneshot_segmented",
            Workload::SessionHistory => "session_history",
        }
    }

    /// Devices in the fleet.
    #[must_use]
    pub fn devices(self) -> usize {
        match self {
            Workload::OneshotWhole => 16,
            Workload::OneshotSegmented => 1_024,
            Workload::SessionHistory => 32,
        }
    }

    /// The prover deployment of the fleet.
    #[must_use]
    pub fn config(self) -> ProverConfig {
        match self {
            Workload::OneshotWhole => ProverConfig::recommended(),
            Workload::OneshotSegmented | Workload::SessionHistory => {
                ProverConfig::recommended_segmented()
            }
        }
    }

    /// Device cycles of one verdict, fixed by the paper's cycle model
    /// (Table 1, §6.3). A run whose provers pay anything else fails.
    #[must_use]
    pub fn expected_cycles(self) -> u64 {
        match self {
            Workload::OneshotWhole => 18_098_872,
            Workload::OneshotSegmented => 340_440,
            Workload::SessionHistory => 298_080,
        }
    }
}

/// `splitmix64`: the benchmark's only random source, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        out
    }

    /// A uniformly shuffled copy of `items` (Fisher–Yates).
    pub fn shuffled<T: Copy>(&mut self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            out.swap(i, j);
        }
        out
    }
}

/// Everything a seed decides: firmware bytes, device keys, which image
/// each device runs, and the order each client thread visits its devices.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs are for.
    pub workload: Workload,
    /// `IMAGES` firmware images: flashed application images for real
    /// provers, expected memory images for responders.
    pub images: Vec<Vec<u8>>,
    /// One long-term key per device.
    pub keys: Vec<[u8; 16]>,
    /// `image_of[d]`: the image device `d` runs.
    pub image_of: Vec<usize>,
    /// `order[t]`: the device ids client thread `t` visits, cyclically.
    /// Thread `t` owns exactly the devices with `id % CLIENTS == t`.
    pub order: Vec<Vec<u64>>,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let image_len = match workload {
            Workload::OneshotSegmented => SEGMENTED_IMAGE_LEN,
            Workload::OneshotWhole | Workload::SessionHistory => APP_IMAGE_LEN,
        };
        let images = (0..IMAGES).map(|_| rng.bytes(image_len)).collect();
        let n = workload.devices();
        let keys = (0..n)
            .map(|_| rng.bytes(16).try_into().expect("16 bytes"))
            .collect();
        let image_of = (0..n)
            .map(|_| (rng.next_u64() % IMAGES as u64) as usize)
            .collect();
        let order = (0..CLIENTS)
            .map(|t| {
                let owned: Vec<u64> = (0..n as u64)
                    .filter(|d| *d as usize % CLIENTS == t)
                    .collect();
                rng.shuffled(&owned)
            })
            .collect();
        Inputs {
            workload,
            images,
            keys,
            image_of,
            order,
        }
    }

    /// Device of the `k`-th op of client thread `t`.
    #[must_use]
    pub fn device_at(&self, t: usize, k: usize) -> u64 {
        let order = &self.order[t];
        order[k % order.len()]
    }

    /// Device of position `j` of the merged op stream (thread `j % CLIENTS`,
    /// its op `j / CLIENTS`) — the order the in-process replay follows.
    #[must_use]
    pub fn stream_device(&self, j: usize) -> u64 {
        self.device_at(j % CLIENTS, j / CLIENTS)
    }
}

/// One client device: a real prover behind the library's own agent, or
/// the benchmark's wire-honest responder.
#[derive(Debug)]
pub enum Device {
    /// A real [`Prover`] driven by [`ProverAgent`].
    Agent(Box<ProverAgent>),
    /// A [`Responder`] answering for a device on a shared image.
    Responder(Responder),
}

/// A provisioned fleet: client devices plus the directory that serves them.
#[derive(Debug)]
pub struct Fleet {
    /// Client devices, indexed by device id.
    pub devices: Vec<Device>,
    /// The gateway-side roster (moved into the gateway by [`serve`]).
    pub directory: DeviceDirectory,
    /// Device cost of one verdict on this workload, from a real prover.
    pub reference_cost: CostBreakdown,
}

/// Provisions every device of `inputs` and registers its verifier.
///
/// # Errors
///
/// A message naming the device that failed to provision.
pub fn provision(inputs: &Inputs) -> Result<Fleet, String> {
    let workload = inputs.workload;
    let config = workload.config();
    let mut directory = DeviceDirectory::new();
    let mut devices = Vec::with_capacity(workload.devices());
    let firmwares: Vec<Arc<Firmware>> = match workload {
        Workload::OneshotSegmented => {
            let seg_len = config.segmented.expect("segmented config").segment_len;
            inputs
                .images
                .iter()
                .map(|bytes| Arc::new(Firmware::new(bytes.clone(), seg_len)))
                .collect()
        }
        Workload::OneshotWhole | Workload::SessionHistory => Vec::new(),
    };
    for (id, key) in inputs.keys.iter().enumerate() {
        let image = inputs.image_of[id];
        let mut verifier =
            Verifier::new(&config, key).map_err(|e| format!("verifier {id}: {e}"))?;
        let device = match workload {
            Workload::OneshotSegmented => {
                let fw = Arc::clone(&firmwares[image]);
                directory.register(verifier, fw.bytes().to_vec());
                Device::Responder(Responder::new(fw, key, config.response_mac))
            }
            Workload::OneshotWhole | Workload::SessionHistory => {
                let prover = Prover::provision(config.clone(), key, &inputs.images[image])
                    .map_err(|e| format!("prover {id}: {e}"))?;
                let expected = prover.expected_memory().to_vec();
                let agent = if workload == Workload::SessionHistory {
                    verifier.set_scope_policy(ScopePolicy::History { full_every: 0 });
                    ProverAgent::with_sessions(prover, id as u64)
                } else {
                    ProverAgent::new(prover, id as u64)
                };
                directory.register(verifier, expected);
                Device::Agent(Box::new(agent))
            }
        };
        devices.push(device);
    }
    let reference_cost = match workload {
        Workload::OneshotSegmented => segmented_reference_cost(&inputs.keys[0])?,
        Workload::OneshotWhole | Workload::SessionHistory => CostBreakdown::default(),
    };
    Ok(Fleet {
        devices,
        directory,
        reference_cost,
    })
}

/// What a real `recommended_segmented` prover pays for the request shape
/// a [`Responder`] answers: a Segmented one-shot with only the freshness
/// segment dirty. Responders model no device, so `oneshot_segmented`
/// reports this reference cost as its device cycles per verdict.
fn segmented_reference_cost(key: &[u8; 16]) -> Result<CostBreakdown, String> {
    let config = ProverConfig::recommended_segmented();
    let mut prover =
        Prover::provision(config.clone(), key, b"reference").map_err(|e| e.to_string())?;
    let mut verifier = Verifier::new(&config, key).map_err(|e| e.to_string())?;
    let mut cost = CostBreakdown::default();
    // The first round sweeps every segment; the second finds only the
    // freshness segment dirty — the steady state a responder mirrors.
    for _ in 0..2 {
        let request = verifier.make_request().map_err(|e| e.to_string())?;
        let raw = prover
            .handle_wire_request(&request.to_bytes())
            .map_err(|e| format!("reference prover: {e}"))?;
        let response = AttestResponse::from_bytes(&raw).map_err(|e| e.to_string())?;
        if !verifier.check_response(&request, &response, prover.expected_memory()) {
            return Err("reference prover response did not verify".to_string());
        }
        cost = *prover.last_cost();
    }
    Ok(cost)
}

/// A running gateway over an in-memory loopback hub.
pub struct Served {
    /// The gateway.
    pub handle: GatewayHandle,
    /// Where clients dial.
    pub connector: LoopbackConnector,
}

/// The gateway configuration under test: the default, with only the
/// deadlines widened so a slow host never turns into a failed verdict.
#[must_use]
pub fn gateway_config() -> GatewayConfig {
    let default = GatewayConfig::default();
    GatewayConfig {
        read_timeout_ms: IO_TIMEOUT_MS,
        write_timeout_ms: IO_TIMEOUT_MS,
        retry: RetryPolicy {
            timeout_ms: IO_TIMEOUT_MS,
            ..default.retry
        },
        ..default
    }
}

/// Starts the gateway on the fleet's directory. The fleet keeps its
/// devices; the directory moves into the gateway.
#[must_use]
pub fn serve(directory: DeviceDirectory) -> Served {
    let (hub, connector) = LoopbackHub::new(DEFAULT_MAX_FRAME);
    let handle = Gateway::start(Box::new(hub), directory, gateway_config());
    Served { handle, connector }
}

/// Verified dials each device needs before steady state: one for one-shot
/// devices; for session devices the attested handshake, the bootstrap
/// History round that covers every segment, and one quiescent round.
#[must_use]
pub fn warmup_dials(workload: Workload) -> usize {
    match workload {
        Workload::OneshotWhole | Workload::OneshotSegmented => 1,
        Workload::SessionHistory => 3,
    }
}

/// Brings every device to steady state over the wire, one dial at a time.
///
/// # Errors
///
/// A message naming the first device whose warm-up dial did not verify.
pub fn warm_up(fleet: &mut Fleet, served: &Served, workload: Workload) -> Result<(), String> {
    let timeout = Duration::from_millis(IO_TIMEOUT_MS);
    for (id, device) in fleet.devices.iter_mut().enumerate() {
        for dial in 0..warmup_dials(workload) {
            let mut conn = served
                .connector
                .connect()
                .map_err(|e| format!("warm-up dial of device {id}: {e}"))?;
            if !wire::dial_once(device, id as u64, &mut conn, timeout).verified {
                return Err(format!("warm-up dial {dial} of device {id} did not verify"));
            }
        }
    }
    Ok(())
}

/// Establishes a session for `id` in process, through the same public
/// handshake calls the gateway and the agent make over the wire, and
/// returns the (verifier, prover) channel ends.
///
/// # Errors
///
/// A message if the handshake's attestation fails.
pub fn handshake_in_process(
    directory: &DeviceDirectory,
    prover: &mut Prover,
    id: u64,
) -> Result<(channel::SecureChannel, channel::SecureChannel), String> {
    let (init, request) = directory
        .with_verifier(id, |v| {
            channel::verifier_begin(v, gateway_config().rekey_after_rounds)
        })
        .ok_or("unknown device")?
        .map_err(|e| e.to_string())?;
    let (accept, prover_end) = channel::prover_accept(prover, &init).map_err(|e| e.to_string())?;
    let verifier_end = directory
        .with_expected(id, &request.freshness, |view| {
            directory.with_verifier(id, |v| {
                channel::verifier_confirm_view(v, &init, &request, &accept, view)
            })
        })
        .flatten()
        .ok_or("unknown device")?
        .map_err(|e| format!("handshake of device {id}: {e}"))?;
    Ok((verifier_end, prover_end))
}
