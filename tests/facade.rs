//! The root `g-gpu` facade must re-export every subsystem usable
//! together in one namespace.

use g_gpu::fault::MacroMap;
use g_gpu::isa::assemble as simt_assemble;
use g_gpu::kernels::all;
use g_gpu::netlist::{Design, EccPolicy};
use g_gpu::planner::{GpuPlanner, Specification};
use g_gpu::riscv::assemble as rv_assemble;
use g_gpu::rtl::GgpuConfig;
use g_gpu::simt::{Gpu, Kernel, Launch, SimtConfig};
use g_gpu::sta::max_frequency;
use g_gpu::tech::units::Mhz;
use g_gpu::tech::Tech;

#[test]
fn every_subsystem_is_reachable_through_the_facade() {
    // tech + rtl + sta
    let tech = Tech::l65();
    let design: Design = g_gpu::rtl::generate(&GgpuConfig::with_cus(1).unwrap()).unwrap();
    assert!(max_frequency(&design, &tech).unwrap().is_some());

    // synth
    let report = g_gpu::synth::synthesize(&design, &tech, Mhz::new(500.0)).unwrap();
    assert!(report.meets_timing);

    // fault
    let map = MacroMap::from_design(&design, &EccPolicy::unprotected()).unwrap();
    assert!(!map.sites().is_empty());

    // planner
    let planner = GpuPlanner::new(tech);
    assert!(planner
        .estimate(&Specification::new(1, Mhz::new(500.0)))
        .is_ok());

    // isa + simt
    let kernel = Kernel {
        name: "k".into(),
        program: simt_assemble("gid r1\nret").unwrap(),
    };
    let mut gpu = Gpu::new(SimtConfig::with_cus(1), 1024);
    assert!(gpu.launch(&kernel, &Launch::new(8, 8, vec![])).is_ok());

    // riscv
    assert!(rv_assemble("ecall").is_ok());

    // kernels
    assert_eq!(all().len(), 7);
}
