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

/// One implementation per instruction set, e.g. a kernel's entry points.
pub(crate) struct PerIsa<F> {
    pub(crate) portable: F,
    #[cfg(target_arch = "x86_64")]
    pub(crate) avx2: F,
    #[cfg(target_arch = "x86_64")]
    pub(crate) avx512: F,
}

impl<F: Copy> PerIsa<F> {
    /// The implementation for [`isa`]: the widest this CPU runs.
    pub(crate) fn get(&self) -> F {
        match isa() {
            Isa::Portable => self.portable,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => self.avx2,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => self.avx512,
        }
    }

    /// Every implementation this CPU runs, named, portable first — what a
    /// test calls directly, since [`PerIsa::get`] reaches only the widest.
    #[cfg(test)]
    pub(crate) fn runnable(&self) -> Vec<(&'static str, F)> {
        let mut runnable = vec![("portable", self.portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                runnable.push(("avx2", self.avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                runnable.push(("avx512", self.avx512));
            }
        }
        runnable
    }
}
