//! Bring your own kernel: author a MASS kernel with the builder, run it
//! on two different vendor architectures, and inject a targeted fault.
//!
//! Demonstrates the full public API surface below the `Workload` layer:
//! kernel building, per-architecture lowering (scalar folding on NVIDIA),
//! launching, and manual fault arming.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use gpu_reliability_repro::archs::{hd_radeon_7970, quadro_fx_5800};
use gpu_reliability_repro::isa::{lower, CmpOp, KernelBuilder, MemSpace};
use gpu_reliability_repro::sim::{ArchConfig, FaultSite, Gpu, LaunchConfig, Structure};

/// SAXPY with a bounds guard: `y[i] = a*x[i] + y[i]` for `i < n`.
fn saxpy_kernel() -> gpu_reliability_repro::isa::Kernel {
    let mut kb = KernelBuilder::new("saxpy", 4); // params: x, y, n, a
    let (px, py, pn, pa) = (kb.param(0), kb.param(1), kb.param(2), kb.param(3));
    let gid = kb.vreg();
    let xv = kb.vreg();
    let yv = kb.vreg();
    let addr = kb.vreg();
    let inb = kb.preg();
    kb.global_tid_x(gid);
    kb.isetp(CmpOp::ULt, inb, gid, pn);
    kb.if_begin(inb);
    kb.word_addr(addr, px, gid);
    kb.ld(MemSpace::Global, xv, addr);
    kb.word_addr(addr, py, gid);
    kb.ld(MemSpace::Global, yv, addr);
    kb.ffma(yv, xv, pa, yv);
    kb.st(MemSpace::Global, addr, yv);
    kb.if_end();
    kb.exit();
    kb.build().expect("saxpy is a valid kernel")
}

fn run_on(arch: ArchConfig, fault: Option<FaultSite>) -> Vec<f32> {
    let kernel = saxpy_kernel();
    let lowered = lower(&kernel, arch.caps()).expect("kernel fits every device");
    println!(
        "{:<16} lowered: {} vregs/thread, {} sregs/warp",
        arch.name,
        lowered.vregs_per_thread(),
        lowered.sregs_per_warp()
    );
    let n = 1024u32;
    let mut gpu = Gpu::new(arch);
    let x = gpu.alloc_words(n);
    let y = gpu.alloc_words(n);
    gpu.write_floats(x, &(0..n).map(|i| i as f32).collect::<Vec<_>>());
    gpu.write_floats(y, &vec![1.0f32; n as usize]);
    if let Some(f) = fault {
        gpu.arm_fault(f)
            .expect("the site is on an SM of the device");
    }
    gpu.launch(
        &lowered,
        LaunchConfig::linear(n / 128, 128),
        &[x.addr(), y.addr(), n, 2.0f32.to_bits()],
    )
    .expect("launch succeeds");
    gpu.read_floats(y, n)
}

fn main() {
    // The same MASS source lowers differently per vendor: on Southern
    // Islands the uniform `a` and the pointers stay in the scalar file,
    // on GT200 they fold into per-thread vector registers.
    let clean_si = run_on(hd_radeon_7970(), None);
    let clean_nv = run_on(quadro_fx_5800(), None);
    assert_eq!(clean_si, clean_nv, "both vendors compute the same saxpy");
    println!(
        "saxpy y[10] = {} (expected {})",
        clean_nv[10],
        2.0 * 10.0 + 1.0
    );

    // Now flip a bit in GT200's register file early in the run and watch
    // the output corrupt (or stay masked, if the word was unallocated).
    // word 40 = v1 (the x value) of lane 8, warp 0, first block;
    // bit 30 sits in the high mantissa/exponent region of an f32.
    let site = FaultSite::new(Structure::VectorRegisterFile, 0, 40, 30, 300);
    let faulty = run_on(quadro_fx_5800(), Some(site));
    let diffs = faulty.iter().zip(&clean_nv).filter(|(a, b)| a != b).count();
    println!(
        "injected {site}: {diffs} of {} outputs corrupted",
        faulty.len()
    );
}
