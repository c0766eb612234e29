//! Property tests of macro placement: the shelf packer produces legal,
//! complete placements over randomized CU geometries (1–64, past the
//! paper's 8-CU ceiling), and those layouts flow through post-route
//! timing.

use ggpu_pnr::{
    build_floorplan, place_and_route, place_macros, PlacedPartition, MAX_CELL_UTILIZATION,
};
use ggpu_rtl::{generate, GgpuConfig};
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;

fn config(cus: u32, gmcs: u32) -> GgpuConfig {
    GgpuConfig {
        compute_units: cus,
        memory_controllers: gmcs,
        allow_extended_cus: cus > 8,
        ..GgpuConfig::default()
    }
}

/// Deterministic test RNG (splitmix64) — no external crates.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Asserts one partition's placement is physically legal: every macro
/// inside the partition outline, no two macros overlapping, std-cell
/// utilization within range, and no macro placed twice.
fn assert_legal(p: &PlacedPartition, ctx: &str) {
    assert!(
        p.utilization <= MAX_CELL_UTILIZATION + 1e-9,
        "{ctx}/{}: utilization {}",
        p.partition.name,
        p.utilization
    );
    let mut names: Vec<&str> = p.macros.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        p.macros.len(),
        "{ctx}/{}: duplicate macro names",
        p.partition.name
    );
    for m in &p.macros {
        assert!(
            p.partition.rect.contains(&m.rect),
            "{ctx}/{}: {} escapes its partition",
            p.partition.name,
            m.name
        );
    }
    for (i, a) in p.macros.iter().enumerate() {
        for b in p.macros.iter().skip(i + 1) {
            assert!(
                !a.rect.overlaps(&b.rect),
                "{ctx}/{}: {} overlaps {}",
                p.partition.name,
                a.name,
                b.name
            );
        }
    }
}

#[test]
fn shelf_placement_is_legal_on_random_geometries() {
    let tech = Tech::l65();
    let mut rng = 0x5eed_u64;
    // A fixed ladder covering the interesting sizes plus random fill.
    let mut cu_counts = vec![1, 2, 8, 16, 33, 64];
    for _ in 0..4 {
        cu_counts.push((next(&mut rng) % 64 + 1) as u32);
    }
    for cus in cu_counts {
        let gmcs = (next(&mut rng) % 2 + 1) as u32;
        let ctx = format!("{cus}cu/{gmcs}gmc");
        let design = generate(&config(cus, gmcs)).expect("valid config");
        let fp = build_floorplan(&design, &tech).expect("floorplan");
        let placed = place_macros(&design, &fp, &tech).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(placed.len(), fp.partitions.len(), "{ctx}");
        let mut total = 0usize;
        for p in &placed {
            assert_legal(p, &ctx);
            total += p.macros.len();
        }
        // Complete: every macro instance of the design is placed once.
        assert_eq!(total, design.all_macros().count(), "{ctx}");
    }
}

#[test]
fn extended_geometries_flow_through_timing() {
    // The DSE-scale acceptance: 16-, 32- and 64-CU machines produce
    // legal, timing-evaluated layouts on the default flow.
    let tech = Tech::l65();
    for cus in [16u32, 32, 64] {
        let design = generate(&config(cus, 2)).expect("valid config");
        let layout = place_and_route(&design, &tech, Mhz::new(500.0)).expect("flow completes");
        assert_eq!(layout.cu_route_delays.len(), cus as usize);
        for p in &layout.placements {
            assert_legal(p, &format!("{cus}cu"));
        }
        // Timing was genuinely evaluated: a finite fmax and a
        // consistent verdict.
        assert!(layout.fmax.value().is_finite());
        assert_eq!(
            layout.meets_timing,
            layout.fmax.value() + 1e-9 >= layout.target.value(),
            "{cus} CUs: verdict inconsistent with fmax {}",
            layout.fmax
        );
    }
}
