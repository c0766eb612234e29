//! Property tests of the physical flow over the generator's whole
//! configuration space: partitions never overlap, macros always land
//! inside their partition, and wirelength grows with the design.
//!
//! The configuration space (cus x gmcs) is small enough to sweep
//! exhaustively, which is strictly stronger than sampling it.

use ggpu_pnr::{build_floorplan, place_and_route};
use ggpu_rtl::{generate, GgpuConfig};
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;

fn config(cus: u32, gmcs: u32) -> GgpuConfig {
    GgpuConfig {
        compute_units: cus,
        memory_controllers: gmcs,
        ..GgpuConfig::default()
    }
}

#[test]
fn floorplans_are_always_legal() {
    let tech = Tech::l65();
    for cus in 1u32..=8 {
        for gmcs in 1u32..=2 {
            let design = generate(&config(cus, gmcs)).expect("valid config");
            let fp = build_floorplan(&design, &tech).expect("floorplans");
            assert_eq!(fp.cus().count(), cus as usize);
            assert_eq!(fp.gmcs().count(), gmcs as usize);
            for p in &fp.partitions {
                assert!(fp.chip.contains(&p.rect), "{} escapes chip", p.name);
            }
            for (i, a) in fp.partitions.iter().enumerate() {
                for b in fp.partitions.iter().skip(i + 1) {
                    assert!(!a.rect.overlaps(&b.rect), "{} vs {}", a.name, b.name);
                }
            }
        }
    }
}

#[test]
fn placement_and_routing_always_complete_at_500mhz() {
    let tech = Tech::l65();
    for cus in 1u32..=8 {
        for gmcs in 1u32..=2 {
            let design = generate(&config(cus, gmcs)).expect("valid config");
            let layout = place_and_route(&design, &tech, Mhz::new(500.0)).expect("flow completes");
            // Every macro of every partition is inside its outline.
            for p in &layout.placements {
                for m in &p.macros {
                    assert!(p.partition.rect.contains(&m.rect), "{}", m.name);
                }
            }
            // The baseline always closes 500 MHz regardless of CU count.
            assert!(layout.meets_timing, "fmax {}", layout.fmax);
            assert!(layout.wirelength.total().value() > 0.0);
            assert_eq!(layout.cu_route_delays.len(), cus as usize);
        }
    }
}

#[test]
fn more_cus_means_more_wire_and_area() {
    let tech = Tech::l65();
    for cus in 1u32..=7 {
        let small = generate(&config(cus, 1)).expect("valid");
        let big = generate(&config(cus + 1, 1)).expect("valid");
        let fp_s = build_floorplan(&small, &tech).expect("ok");
        let fp_b = build_floorplan(&big, &tech).expect("ok");
        // Adding a CU fills an empty column slot when the count goes
        // odd -> even, so chip area is non-decreasing (strictly larger
        // whenever a new row is opened).
        assert!(fp_b.chip.area().value() >= fp_s.chip.area().value() - 1e-6);
        let wl_s = ggpu_pnr::estimate_wirelength(&small, &fp_s, &tech)
            .expect("ok")
            .total();
        let wl_b = ggpu_pnr::estimate_wirelength(&big, &fp_b, &tech)
            .expect("ok")
            .total();
        assert!(wl_b.value() > wl_s.value());
    }
}
