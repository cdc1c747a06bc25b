//! Golden setup: pins the exact bits of an AmgT (FP64, native) hierarchy
//! and the simulated A100 ledger its setup charges, for the five matrices
//! of the `cold_solve` benchmark workload at `Scale::Small`.
//!
//! The setup kernels (SpGEMM, CSR<->mBSR conversion, strength) may be
//! rewritten for host speed, but never so that a value bit or a simulated
//! charge moves: the CSR and mBSR values of every level's `A` and `P`, and
//! `Device::elapsed()`, must match the constants below.

use amgt::prelude::*;
use amgt::ExecMode;
use amgt_sparse::fingerprint::Fnv;
use amgt_sparse::suite::{generate, Scale};

/// `(matrix, FNV-1a over the hierarchy's value bits, Device::elapsed() bits)`.
const GOLDEN: [(&str, u64, u64); 5] = [
    ("cant", 0xf37c_bae1_fe63_2585, 0x3f1f_fc81_9a9a_b6f4),
    ("venkat25", 0x710a_a944_8455_18c1, 0x3f21_59b6_dd2a_16f0),
    ("thermal1", 0xd411_c63d_c07d_7e8d, 0x3f12_4285_5c9c_2f5b),
    (
        "parabolic_fem",
        0x5b1e_b231_5988_6185,
        0x3f31_e246_0f38_cbab,
    ),
    ("Pres_Poisson", 0x4172_5400_08df_47b1, 0x3f23_c762_8c26_0b83),
];

fn hierarchy_hash(h: &Hierarchy) -> u64 {
    let mut fnv = Fnv::new();
    let mut put = |vals: &[f64]| {
        for v in vals {
            fnv.write_u64(v.to_bits());
        }
    };
    for op in h
        .levels
        .iter()
        .flat_map(|lvl| std::iter::once(&lvl.a).chain(&lvl.p))
    {
        put(&op.csr.vals);
        if let Some(m) = &op.mbsr {
            put(&m.blc_val);
        }
    }
    fnv.finish()
}

#[test]
fn amgt_fp64_native_setup_is_bit_and_ledger_stable() {
    let mut cfg = AmgConfig::paper(BackendKind::AmgT, PrecisionPolicy::Uniform64);
    cfg.exec = ExecMode::Native;
    let mut moved = Vec::new();
    for (name, want_hash, want_elapsed) in GOLDEN {
        let a = generate(name, Scale::Small).expect("suite matrix");
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a);
        let (hash, elapsed) = (hierarchy_hash(&h), dev.elapsed());
        println!(
            "{name}: hash {hash:#018x}, elapsed {:#018x} ({elapsed:e} s)",
            elapsed.to_bits()
        );
        if hash != want_hash {
            moved.push(format!("{name}: hierarchy value bits moved"));
        }
        if elapsed.to_bits() != want_elapsed {
            moved.push(format!(
                "{name}: simulated setup ledger moved ({elapsed:e} s)"
            ));
        }
    }
    assert!(moved.is_empty(), "{moved:#?}");
}
