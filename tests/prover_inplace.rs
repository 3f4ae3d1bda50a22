//! Differential test for the in-place prover read. `Code_Attest` MACs
//! and digests RAM where it lies once the EA-MPU grants the read; this
//! file pins that every response is byte-identical to the construction
//! over an explicit copy of RAM — `HMAC(signed_bytes ‖ ram.to_vec())` for
//! Whole scope, `combined_input` / `history_input` over digests of the
//! copy for Segmented and History scope — under random RAM contents,
//! random dirty-bit and epoch-log states and every scope. It also pins
//! that a denied RAM read fails every scope with the MPU violation, logged
//! once.

use proptest::prelude::*;
use proverguard_attest::auth::RequestSigner;
use proverguard_attest::error::AttestError;
use proverguard_attest::message::{AttestRequest, AttestScope, FreshnessField};
use proverguard_attest::profile::Protection;
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_attest::segcache::{combined_input, history_input, segment_digests, HistoryReport};
use proverguard_crypto::mac::MacKey;
use proverguard_mcu::mpu::Permissions;
use proverguard_mcu::{map, McuError, Rule};

const KEY: [u8; 16] = [0x3C; 16];

/// Mints authenticated requests at any scope with a strictly increasing
/// counter, as a verifier would.
struct Requester {
    signer: RequestSigner,
    counter: u64,
}

impl Requester {
    fn new(config: &ProverConfig) -> Self {
        Requester {
            signer: RequestSigner::new(config.auth, &KEY).expect("signer"),
            counter: 0,
        }
    }

    fn request(&mut self, scope: AttestScope) -> AttestRequest {
        self.counter += 1;
        let mut request = AttestRequest {
            scope,
            freshness: FreshnessField::Counter(self.counter),
            challenge: [self.counter as u8; 16],
            auth: Vec::new(),
        };
        request.auth = self.signer.sign(&request.signed_bytes());
        request
    }
}

/// Deterministic filler bytes (xorshift64) so one proptest word seeds a
/// whole RAM image without generating it through the strategy.
fn filler(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// An application write of pseudo-random bytes somewhere in `APP_RAM`,
/// possibly straddling segment boundaries.
fn scatter_write(prover: &mut Prover, word: u64) {
    let span = u64::from(map::APP_RAM.end - map::APP_RAM.start - 4096);
    let addr = map::APP_RAM.start + (word % span) as u32;
    let len = 1 + ((word >> 32) % 4096) as usize;
    prover
        .mcu_mut()
        .bus_write(addr, &filler(word, len), map::APP_CODE)
        .expect("application write");
}

/// The response the pre-change prover built, from an explicit copy of RAM.
fn reference_report(prover: &Prover, request: &AttestRequest, round: u64, key: &MacKey) -> Vec<u8> {
    let ram = prover.expected_memory().to_vec();
    let signed = request.signed_bytes();
    let seg_len = prover.mcu().segment_len();
    match request.scope {
        AttestScope::Whole => key.compute(&[&signed[..], &ram[..]].concat()),
        AttestScope::Segmented => {
            let digests = segment_digests(&ram, seg_len as usize);
            key.compute(&combined_input(&signed, seg_len, &digests))
        }
        AttestScope::History { since_round } => {
            let all = segment_digests(&ram, seg_len as usize);
            let modified: Vec<bool> = (0..all.len())
                .map(|i| prover.mcu().segment_epoch(i) > since_round)
                .collect();
            let fresh: Vec<_> = all
                .iter()
                .zip(&modified)
                .filter(|(_, m)| **m)
                .map(|(d, _)| *d)
                .collect();
            let report = HistoryReport { round, modified };
            let mut out = report.encode();
            out.extend_from_slice(&key.compute(&history_input(&signed, seg_len, &report, &fresh)));
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn in_place_responses_match_the_copy_construction(
        fill_seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 0..12),
        scope_choice in 0usize..4,
    ) {
        let config = ProverConfig::recommended_segmented();
        let mut prover = Prover::provision(config.clone(), &KEY, b"in-place app").expect("provision");
        let mut requester = Requester::new(&config);
        let key = MacKey::new(config.response_mac, &KEY).expect("response key");

        // Random RAM contents, then a random history: writes interleaved
        // with cheap rounds, so dirty bits and epoch stamps end up in an
        // arbitrary mix of acknowledged, rewritten and stale.
        let app_len = (map::APP_RAM.end - map::APP_RAM.start) as usize;
        prover
            .mcu_mut()
            .bus_write(map::APP_RAM.start, &filler(fill_seed, app_len), map::APP_CODE)
            .expect("fill");
        for word in &ops {
            match word % 4 {
                0 => {
                    let since = prover.mcu().epoch() - 1;
                    let request = requester.request(AttestScope::History { since_round: since });
                    prover.handle_request(&request).expect("history warm-up");
                }
                1 => {
                    let request = requester.request(AttestScope::Segmented);
                    prover.handle_request(&request).expect("segmented warm-up");
                }
                _ => scatter_write(&mut prover, *word),
            }
        }

        let round = prover.mcu().epoch();
        let scope = match scope_choice {
            0 => AttestScope::Whole,
            1 => AttestScope::Segmented,
            2 => AttestScope::History { since_round: 0 },
            _ => AttestScope::History { since_round: round - 1 },
        };
        let request = requester.request(scope);
        let response = prover.handle_request(&request).expect("response");
        prop_assert_eq!(response.report, reference_report(&prover, &request, round, &key));
    }
}

/// When the EA-MPU denies `Code_Attest` the RAM read, every scope fails
/// with that violation and the device logs exactly one fault for it.
#[test]
fn denied_ram_read_fails_every_scope_with_one_logged_fault() {
    let config = ProverConfig {
        protection: Protection::Open,
        ..ProverConfig::recommended_segmented()
    };
    let mut prover = Prover::provision(config.clone(), &KEY, b"in-place app").expect("provision");
    // An application-private RAM window: only application code may touch
    // it, so a whole-RAM read by Code_Attest crosses a denied word.
    let secret = map::AddrRange::new(map::APP_RAM.start + 0x1000, map::APP_RAM.start + 0x1100);
    prover
        .mcu_mut()
        .reconfigure_mpu(map::BOOT_PC, |mpu| {
            mpu.add_rule(Rule::new(
                "app-secret",
                secret,
                map::APP_CODE_RANGE,
                Permissions::READ_WRITE,
            ))
        })
        .expect("open MPU accepts the rule");

    let mut requester = Requester::new(&config);
    for scope in [
        AttestScope::Whole,
        AttestScope::Segmented,
        AttestScope::History { since_round: 0 },
    ] {
        let faults_before = prover.mcu().fault_log().len();
        let result = prover.handle_request(&requester.request(scope));
        assert!(
            matches!(
                result,
                Err(AttestError::Device(McuError::MpuViolation { pc, .. })) if pc == map::ATTEST_PC
            ),
            "{scope:?}: expected Code_Attest's MPU violation, got {result:?}"
        );
        assert_eq!(
            prover.mcu().fault_log().len(),
            faults_before + 1,
            "{scope:?}: the denied read is logged exactly once"
        );
    }
}
