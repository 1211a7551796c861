//! Shared runtime-dispatch policy for every backend in this crate.
//!
//! Each primitive (AES, GHASH/POLYVAL, ChaCha20, Poly1305) performs its own CPU
//! feature detection, but they all honor one global override: the
//! `EAG_CRYPTO_FORCE_SOFT` environment variable. When it is set (non-empty
//! and not `"0"`), every `new()` constructor selects its portable software
//! implementation regardless of what the CPU reports, so the soft fallbacks
//! can be exercised on SIMD-capable CI hosts. The variable is read once per
//! process and cached.

use std::sync::OnceLock;

/// True when `EAG_CRYPTO_FORCE_SOFT` demands portable-only dispatch.
///
/// All feature-detecting constructors consult this before probing the CPU;
/// the explicit `new_soft` constructors ignore it (they are already soft).
pub fn force_soft() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("EAG_CRYPTO_FORCE_SOFT") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    })
}
