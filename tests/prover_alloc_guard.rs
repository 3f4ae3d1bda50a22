//! Allocation guard for the prover's response path. A counting global
//! allocator records the largest single heap request made on the test
//! thread while armed; a steady-state Whole, Segmented and History
//! response must each stay below [`LARGE_ALLOCATION`]. `Code_Attest`
//! reads RAM in place, so no response may allocate anything the size of
//! RAM (512 KiB) or of a RAM-sized share of it.
//!
//! Its own test binary: the global allocator applies to the whole
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proverguard_attest::auth::RequestSigner;
use proverguard_attest::message::{AttestRequest, AttestScope, FreshnessField};
use proverguard_attest::prover::{Prover, ProverConfig};
use proverguard_mcu::map;

/// The smallest single allocation the guard refuses.
const LARGE_ALLOCATION: usize = 64 * 1024;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to [`System`], noting the largest request made by an armed
/// thread.
struct Largest;

impl Largest {
    fn note(size: usize) {
        // `try_with`: the allocator also runs while thread-locals are
        // being torn down, when they are no longer accessible.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
            }
        });
    }
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only `const`-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (result, LARGEST.with(Cell::get))
}

const KEY: [u8; 16] = [0xA7; 16];

#[test]
fn steady_state_responses_make_no_large_allocation() {
    let config = ProverConfig::recommended_segmented();
    let mut prover =
        Prover::provision(config.clone(), &KEY, b"alloc guard app").expect("provision");
    let signer = RequestSigner::new(config.auth, &KEY).expect("signer");
    let mut counter = 0u64;
    let mut request = |scope: AttestScope| {
        counter += 1;
        let mut request = AttestRequest {
            scope,
            freshness: FreshnessField::Counter(counter),
            challenge: [counter as u8; 16],
            auth: Vec::new(),
        };
        request.auth = signer.sign(&request.signed_bytes());
        request
    };
    let history = |prover: &Prover| AttestScope::History {
        since_round: prover.mcu().epoch() - 1,
    };

    // Warm-up: fill the segment cache and take one round of each scope,
    // so what follows is the steady state.
    for scope in [AttestScope::Segmented, AttestScope::Whole, history(&prover)] {
        prover.handle_request(&request(scope)).expect("warm-up");
    }

    for scope in [AttestScope::Whole, AttestScope::Segmented, history(&prover)] {
        // An application write between rounds, so the segmented paths
        // re-digest a segment besides the freshness word's.
        prover
            .mcu_mut()
            .bus_write(map::APP_RAM.start + 0x4_0000, b"steady", map::APP_CODE)
            .expect("application write");
        let request = request(scope);
        let (response, largest) = largest_allocation(|| prover.handle_request(&request));
        response.expect("steady-state response");
        assert!(
            largest < LARGE_ALLOCATION,
            "{scope:?} response allocated {largest} bytes at once (limit {LARGE_ALLOCATION})"
        );
    }
}
