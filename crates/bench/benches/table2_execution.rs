//! Table 2 companion bench: wall-clock cost of executing the three builds
//! (baseline, unconditional, sampled) of a representative benchmark.
//! The printed Table 2 uses deterministic op counts; this bench confirms
//! the same ordering holds for real time in our interpreter, and shows
//! the bytecode engine against the name-map reference engine.

use cbi::instrument::{apply_sampling, instrument, strip_sites, Scheme, TransformOptions};
use cbi::minic::{lower, Program};
use cbi::sampler::{LazyBank, SamplingDensity};
use cbi::vm::bytecode::{compile, BcProgram};
use cbi::vm::{Engine, Vm};
use cbi::workloads::benchmark;
use cbi_bench::harness::bench;
use std::hint::black_box;

fn main() {
    let b = benchmark("mst").expect("benchmark exists");
    let inst = instrument(&b.program, Scheme::Checks).expect("instrument");
    let build = |p: &Program| -> BcProgram { compile(&lower(p)) };
    let baseline = strip_sites(&inst.program);
    let baseline_bc = build(&baseline);
    let inst_bc = build(&inst.program);
    let (sampled, _) =
        apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
    let sampled_bc = build(&sampled);

    bench("table2_execution_mst/baseline", || {
        black_box(Vm::from_bytecode(&baseline_bc).run().expect("run"))
    });
    bench("table2_execution_mst/baseline_namemap", || {
        black_box(
            Vm::new(&baseline)
                .with_engine(Engine::NameMap)
                .run()
                .expect("run"),
        )
    });
    bench("table2_execution_mst/unconditional", || {
        black_box(
            Vm::from_bytecode(&inst_bc)
                .with_sites(&inst.sites)
                .run()
                .expect("run"),
        )
    });
    let mut bank = LazyBank::new(SamplingDensity::one_in(1000), 1024, 0);
    let mut seed = 0;
    bench("table2_execution_mst/sampled_1in1000", || {
        seed += 1;
        bank.reseed(SamplingDensity::one_in(1000), seed);
        let mut vm = Vm::from_bytecode(&sampled_bc);
        vm.with_sites(&inst.sites).with_sampling_ref(&mut bank);
        black_box(vm.run().expect("run"))
    });
}
