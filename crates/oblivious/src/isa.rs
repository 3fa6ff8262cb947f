//! The instruction-set levels the kernels are compiled for, and the one
//! way into a kernel body: a [`PerIsa`] table.

use std::sync::OnceLock;

/// What a body may use, narrowest first: the portable build is what every
/// tier targets by default, the wider ones let LLVM use 256-/512-bit
/// compare+select on the same source loops. A level implies the ones
/// below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The widest level this CPU runs, detected once per process: the
/// crate's one CPU detection.
fn isa() -> Isa {
    static LEVEL: OnceLock<Isa> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if avx2 {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    })
}

/// One body per level, e.g. a kernel's entry points: the only way into a
/// `#[target_feature]` body.
pub(crate) struct PerIsa<F> {
    pub(crate) portable: F,
    #[cfg(target_arch = "x86_64")]
    pub(crate) avx2: F,
    #[cfg(target_arch = "x86_64")]
    pub(crate) avx512: F,
}

impl<F: Copy> PerIsa<F> {
    /// The body of the widest level this CPU runs.
    pub(crate) fn get(&self) -> F {
        match isa() {
            Isa::Portable => self.portable,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => self.avx2,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => self.avx512,
        }
    }

    /// Every body this CPU runs, named, portable first — what a test
    /// calls directly, since [`PerIsa::get`] reaches only the widest.
    #[cfg(test)]
    pub(crate) fn runnable(&self) -> Vec<(&'static str, F)> {
        let levels = [
            (Isa::Portable, "portable", self.portable),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, "avx2", self.avx2),
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, "avx512", self.avx512),
        ];
        let runs = |&(level, ..): &(Isa, &str, F)| level <= isa();
        levels.into_iter().filter(runs).map(|(_, name, body)| (name, body)).collect()
    }
}
