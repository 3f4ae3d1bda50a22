//! The `oneshot_segmented` responder is wire-honest: the gateway's own
//! verify path accepts its responses and rejects every one-bit flip, a
//! wrong image and a wrong key. The benchmark never measures a forger.

use std::sync::Arc;

use proverguard_attest::error::RejectReason;
use proverguard_attest::gateway::DeviceDirectory;
use proverguard_attest::message::{AttestRequest, AttestResponse};
use proverguard_attest::prover::ProverConfig;
use proverguard_attest::verifier::Verifier;
use proverguard_perfbench::fleet::{Inputs, Rng, Workload, SEGMENTED_IMAGE_LEN};
use proverguard_perfbench::responder::{Firmware, Responder};

const KEY: [u8; 16] = [0x5a; 16];

fn firmware(stream: u64) -> Arc<Firmware> {
    let config = ProverConfig::recommended_segmented();
    let seg_len = config.segmented.expect("segmented config").segment_len;
    Arc::new(Firmware::new(
        Rng::new(42, stream).bytes(SEGMENTED_IMAGE_LEN),
        seg_len,
    ))
}

fn responder(fw: Arc<Firmware>, key: &[u8; 16]) -> Responder {
    Responder::new(fw, key, ProverConfig::recommended_segmented().response_mac)
}

/// A directory with one device on `fw` under `KEY`.
fn directory(fw: &Firmware) -> DeviceDirectory {
    let config = ProverConfig::recommended_segmented();
    let mut directory = DeviceDirectory::new();
    let verifier = Verifier::new(&config, &KEY).expect("verifier");
    directory.register(verifier, fw.bytes().to_vec());
    directory
}

fn request(directory: &DeviceDirectory) -> AttestRequest {
    directory
        .with_verifier(0, |v| v.make_request())
        .expect("registered")
        .expect("request")
}

fn answer(responder: &Responder, request: &AttestRequest) -> AttestResponse {
    let raw = responder
        .respond(&request.to_bytes())
        .expect("segmented request");
    AttestResponse::from_bytes(&raw).expect("response parses")
}

#[test]
fn responses_pass_the_gateway_verify_path() {
    let fw = firmware(1);
    let directory = directory(&fw);
    let responder = responder(Arc::clone(&fw), &KEY);
    for _ in 0..8 {
        let request = request(&directory);
        let response = answer(&responder, &request);
        assert_eq!(
            directory.verify_response(0, &request, &response),
            Some(true)
        );
    }
}

#[test]
fn every_one_bit_flip_is_rejected() {
    let fw = firmware(1);
    let directory = directory(&fw);
    let responder = responder(Arc::clone(&fw), &KEY);
    let request = request(&directory);
    let response = answer(&responder, &request);
    for bit in 0..response.report.len() * 8 {
        let mut flipped = response.clone();
        flipped.report[bit / 8] ^= 1 << (bit % 8);
        assert_eq!(
            directory.verify_response(0, &request, &flipped),
            Some(false),
            "bit {bit} flipped and still verified"
        );
    }
    // The failed checks left the device verifiable.
    assert_eq!(
        directory.verify_response(0, &request, &response),
        Some(true)
    );
}

#[test]
fn wrong_image_or_key_is_rejected() {
    let fw = firmware(1);
    let directory = directory(&fw);
    let other_image = responder(firmware(2), &KEY);
    let other_key = responder(Arc::clone(&fw), &[0xa5; 16]);
    let request = request(&directory);
    for responder in [other_image, other_key] {
        let response = answer(&responder, &request);
        assert_eq!(
            directory.verify_response(0, &request, &response),
            Some(false)
        );
    }
}

#[test]
fn only_segmented_requests_are_answered() {
    let responder = responder(firmware(1), &KEY);
    let mut whole = Verifier::new(&ProverConfig::recommended(), &KEY).expect("verifier");
    let request = whole.make_request().expect("request");
    assert_eq!(
        responder.respond(&request.to_bytes()),
        Err(RejectReason::ScopeUnsupported)
    );
    assert_eq!(responder.respond(b"\x01junk"), Err(RejectReason::Malformed));
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 7);
        let b = Inputs::generate(workload, 7);
        let c = Inputs::generate(workload, 8);
        assert_eq!(
            (&a.images, &a.keys, &a.order),
            (&b.images, &b.keys, &b.order)
        );
        assert_ne!(a.keys, c.keys);
        assert_eq!(a.keys.len(), workload.devices());
        let mut visited: Vec<u64> = a.order.concat();
        visited.sort_unstable();
        assert_eq!(visited, (0..workload.devices() as u64).collect::<Vec<_>>());
    }
}
