//! Shared generators for the planner's property suites.

use ggpu_netlist::module::{MacroInst, MemoryRole, Module};
use ggpu_netlist::timing::{LogicStage, PathEndpoint, TimingPath};
use ggpu_netlist::Design;
use ggpu_prop::Rng;
use ggpu_tech::sram::SramConfig;
use ggpu_tech::stdcell::CellClass;
use ggpu_tech::units::Ns;

/// A random multi-module design whose macros are all divisible and
/// whose paths are all deep enough to pipeline, so any generated plan
/// applies cleanly.
pub fn random_design(rng: &mut Rng) -> Design {
    let mut d = Design::new("rand");
    let n_modules = rng.usize_in(1, 3);
    let mut children = Vec::new();
    for mi in 0..n_modules {
        let mut m = Module::new(format!("mod{mi}"));
        let n_macros = rng.usize_in(1, 2);
        for xi in 0..n_macros {
            let words = 1u32 << rng.u32_in(8, 12); // 256..=4096
            let bits = 1u32 << rng.u32_in(3, 6); // 8..=64
            let config = if rng.chance(0.5) {
                SramConfig::dual(words, bits)
            } else {
                SramConfig::single(words, bits)
            };
            m.macros.push(MacroInst::new(
                format!("ram{xi}"),
                config,
                MemoryRole::Other,
                0.5,
            ));
            let mut p = TimingPath::new(
                format!("read{xi}"),
                PathEndpoint::Macro(format!("ram{xi}")),
                PathEndpoint::Register,
                LogicStage::chain(CellClass::Nand2, rng.usize_in(2, 8), rng.u32_in(1, 4)),
            );
            if rng.chance(0.3) {
                p.route_delay = Ns::new(rng.f64_in(0.0, 0.4));
            }
            m.paths.push(p);
        }
        m.paths.push(TimingPath::new(
            "logic",
            PathEndpoint::Register,
            PathEndpoint::Register,
            LogicStage::chain(CellClass::FullAdder, rng.usize_in(2, 10), rng.u32_in(1, 3)),
        ));
        children.push(d.add_module(m));
    }
    // A top that instantiates every module, so the flow lints (which
    // walk the instance tree) see all of them.
    let mut top = Module::new("top");
    for (i, id) in children.iter().enumerate() {
        top.children.push(ggpu_netlist::module::Instance {
            name: format!("u{i}"),
            module: *id,
        });
    }
    let top = d.add_module(top);
    d.set_top(top);
    d
}
