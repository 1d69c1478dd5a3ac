//! Instrumented proof that the fused dealiased-advection sweep is
//! allocation-free once warm: the gradient stays element-local in
//! per-worker scratch, so a four-field sweep (u, v, w, T) allocates
//! nothing — serial or pooled.
//!
//! The allocation check uses a counting `#[global_allocator]` and must own
//! the whole test binary, so this file contains exactly one `#[test]`.

use rbx_core::diffops::{Dealias, DiffScratch};
use rbx_device::WorkerPool;
use rbx_mesh::generators::box_mesh;
use rbx_mesh::GeomFactors;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with global allocation and byte counters.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: relaxed — monotonic event counters, read after the
        // pool's completion handshake has synchronized every worker.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[test]
fn warm_four_field_sweep_allocates_nothing() {
    let mesh = box_mesh(3, 3, 3, [0., 2.], [0., 2.], [0., 1.], false, false);
    let geom = GeomFactors::new(&mesh, 5);
    let n = geom.total_nodes();
    let field = |k: f64| -> Vec<f64> {
        (0..n)
            .map(|i| (k * geom.coords[0][i]).sin() + 0.3 * k * geom.coords[2][i])
            .collect()
    };
    let (ux, uy, uz, t) = (field(1.0), field(2.0), field(3.0), field(0.5));
    let a = [&ux[..], &uy[..], &uz[..]];
    let vs = [a[0], a[1], a[2], &t[..]];
    let dealias = Dealias::new(&geom, true);
    let pool = WorkerPool::new(2);
    let mut scratch = DiffScratch::default();
    let mut out = [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]];

    let mut sweep = |pooled: bool| {
        let [o0, o1, o2, o3] = &mut out;
        let outs = [&mut o0[..], &mut o1[..], &mut o2[..], &mut o3[..]];
        if pooled {
            dealias.advect_fields_with(&geom, a, vs, outs, &pool);
        } else {
            dealias.advect_fields(&geom, a, vs, outs, &mut scratch);
        }
    };

    // Warm-up: the serial scratch and every participating worker's
    // thread-local scratch grow to this degree's element and fine-grid
    // sizes; everything after reuses them.
    for _ in 0..8 {
        sweep(false);
        sweep(true);
    }

    let (allocs0, bytes0) = counters();
    for _ in 0..20 {
        sweep(false);
        sweep(true);
    }
    let (allocs1, bytes1) = counters();
    assert_eq!(
        (allocs1 - allocs0, bytes1 - bytes0),
        (0, 0),
        "a warm four-field advection sweep must not allocate (allocations, bytes)"
    );
}
