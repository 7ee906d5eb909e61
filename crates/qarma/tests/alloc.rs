//! Regression pin for the allocation-free hot path: `encrypt`/`decrypt`/
//! `encrypt_many` must perform zero heap allocations after construction,
//! and QARMA-128's kernel choice (SSSE3 or portable) must be made once at
//! construction, never per call.
//!
//! Lives in its own integration-test binary so the counting global allocator
//! does not leak into the unit tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qarma::q128::kernel_detections;
use qarma::{Qarma128, Qarma64, Sbox};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn cipher_hot_path_is_allocation_free() {
    // Construction may allocate and probes the host for a SIMD kernel;
    // build the ciphers and all buffers before the counting window opens.
    let detections_before_new = kernel_detections();
    let q64 = Qarma64::new([0x84be85ce9804e94b, 0xec2802d4e0a488e4], 7, Sbox::Sigma1);
    let q128 = Qarma128::new(
        [
            0x84be85ce9804e94bec2802d4e0a488e4,
            0x10235374a49bccdde2f10325a89bdcfe,
        ],
        9,
        Sbox::Sigma1,
    );
    assert_eq!(
        kernel_detections() - detections_before_new,
        u64::from(cfg!(target_arch = "x86_64")),
        "Qarma128::new must probe for the SIMD kernel exactly once on x86_64"
    );
    let pairs64: Vec<(u64, u64)> = (0..32).map(|i| (i as u64 * 0x9e37, i as u64)).collect();
    let pairs128: Vec<(u128, u128)> = (0..32).map(|i| (i as u128 * 0x9e37, i as u128)).collect();
    let mut out64 = vec![0u64; pairs64.len()];
    // One buffer per batch length: a lone block, a partial group, one
    // line's four chunks, and eight lines.
    let lens = [1usize, 3, 4, 32];
    let mut outs128: Vec<Vec<u128>> = lens.iter().map(|&n| vec![0u128; n]).collect();

    let detections = kernel_detections();
    let before = allocations();
    let mut acc64 = 0u64;
    let mut acc128 = 0u128;
    for i in 0..64u64 {
        let ct = q64.encrypt(0xfb62_3599_da6e_8127 ^ i, i);
        acc64 = acc64.wrapping_add(q64.decrypt(ct, i));
        let ct = q128.encrypt(0xfb62_3599 ^ u128::from(i), u128::from(i));
        acc128 = acc128.wrapping_add(q128.decrypt(ct, u128::from(i)));
    }
    q64.encrypt_many(&pairs64, &mut out64);
    for (&n, out) in lens.iter().zip(outs128.iter_mut()) {
        q128.encrypt_many(&pairs128[..n], out);
    }
    let after = allocations();

    // Keep the work observable so it cannot be optimized away.
    assert_ne!(acc64, 0);
    assert_ne!(acc128, 0);
    assert_ne!(out64[31], 0);
    for out in &outs128 {
        assert_ne!(out[out.len() - 1], 0);
    }
    assert_eq!(
        after - before,
        0,
        "QARMA hot path allocated {} time(s)",
        after - before
    );
    assert_eq!(
        kernel_detections(),
        detections,
        "the QARMA-128 hot path probed for a SIMD kernel ({} kernel)",
        q128.kernel()
    );
}
