//! The instruction sets the batched kernels are monomorphized for.

use std::sync::OnceLock;

/// What this CPU runs, detected once per process: the portable build is
/// what every tier targets by default, the wider ones let LLVM use
/// 256-/512-bit compare+select on the same source loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

pub(crate) fn isa() -> Isa {
    static LEVEL: OnceLock<Isa> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    })
}
