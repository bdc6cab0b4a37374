//! The workspace contract as a test: once warm, an encode or decode
//! through a reused workspace allocates nothing per block or per strip.
//! A 256×256 image has 64× the blocks and 8× the strips of a 32×32 one; its
//! warm call may allocate more only because its output is larger and the
//! encoder's output buffers double a few more times (its scan buffer grows
//! from 256 B to 8 KiB). The decoder sizes its pixel strip once per image,
//! so its count does not grow at all. Allocating per strip would add at
//! least 28, and a buffer that regrows for every image — such as the
//! entropy-token buffer of an optimized encode — about as many as its own
//! doublings.
//!
//! The counting allocator is this binary's own, and counts per thread, so
//! tests running in parallel do not see each other's allocations. It also
//! records the largest single request, which bounds what a forged header
//! can make the decoder reserve.

use deepn::codec::{DecodeWorkspace, Decoder, EncodeWorkspace, Encoder, RgbImage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn bump(size: usize) {
    // `try_with`: the slots are gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: delegates verbatim to the system allocator; the thread-local
// counter has no allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    // SAFETY: forwards the exact `ptr`/`layout` pair it was given to the
    // system allocator, upholding the caller's contract unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards the caller's pointer, layout, and size verbatim;
    // the counter bump has no allocator-visible side effects.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Warm allocations at 256×256 beyond those at 32×32: the encoder's output
/// buffers' extra doublings (5 for the scan buffer plus one for the
/// finished stream) and a little slack.
const GROWTH_BUDGET: u64 = 8;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Warm allocation counts of `run` on the 32×32 and the 256×256 `input`,
/// printed (`--nocapture`) and checked against [`GROWTH_BUDGET`]. `run` must
/// reuse one workspace across calls.
fn assert_within_budget<T>(what: &str, input: impl Fn(usize) -> T, mut run: impl FnMut(&T)) {
    let [small, large] = [32, 256].map(|side| {
        let x = input(side);
        run(&x); // sizes the workspace for this width
        allocations(|| run(&x))
    });
    println!("{what}: {small} allocations at 32x32, {large} at 256x256");
    assert!(
        large <= small + GROWTH_BUDGET,
        "{what}: {small} allocations at 32x32 but {large} at 256x256"
    );
}

fn gradient(side: usize) -> RgbImage {
    RgbImage::gradient(side, side)
}

#[test]
fn warm_encode_allocations_do_not_grow_with_the_image() {
    for optimize in [true, false] {
        let enc = Encoder::with_quality(75).optimize_huffman(optimize);
        let mut ws = EncodeWorkspace::new();
        assert_within_budget(&format!("encode (optimize={optimize})"), gradient, |img| {
            enc.encode_with(img, &mut ws).expect("encodes");
        });
    }
}

#[test]
fn warm_decode_allocations_do_not_grow_with_the_image() {
    let enc = Encoder::with_quality(75);
    let dec = Decoder::new();
    let mut ws = DecodeWorkspace::new();
    assert_within_budget(
        "decode",
        |side| enc.encode(&gradient(side)).expect("encodes"),
        |bytes| {
            dec.decode_with(bytes, &mut ws).expect("decodes");
        },
    );
}

#[test]
fn a_forged_frame_size_reserves_no_frame_sized_buffer() {
    // One 8x8 block of scan data under a SOF0 that claims 64x65535, whose
    // pixels would take 12,582,720 bytes.
    let mut bytes = Encoder::with_quality(75)
        .encode(&gradient(8))
        .expect("encodes");
    let sof = bytes
        .windows(2)
        .position(|m| m == [0xFF, 0xC0])
        .expect("has a SOF0 marker");
    // Marker (2), length (2) and precision (1), then height and width.
    bytes[sof + 5..sof + 9].copy_from_slice(&[0xFF, 0xFF, 0x00, 0x40]);
    LARGEST.with(|m| m.set(0));
    let result = Decoder::new().decode(&bytes);
    let largest = LARGEST.with(Cell::get);
    println!("forged 64x65535 header: {result:?}, largest request {largest} bytes");
    assert!(result.is_err(), "decoded 64x65535 pixels from one block");
    assert!(largest < 1 << 20, "reserved {largest} bytes");
}
