//! Content fingerprints over the IR, built from per-function leaves.
//!
//! The content-addressed caches in `mcr-core` key every artifact on what
//! the program *is*, not where it came from: every phase key chains off
//! [`program_fingerprint`]. The fingerprint is assembled from the
//! function up:
//!
//! * [`function_fingerprint`] hashes one [`Function`] in isolation. It
//!   folds in the complete `#[derive(Hash)]` field stream (name, body,
//!   loops, condition groups, line table), so any observable edit moves
//!   the fingerprint while *all other functions' fingerprints stay
//!   bit-identical across program revisions*.
//! * [`program_fingerprint`] is a Merkle root: the hash of the shared
//!   state (globals, locks, entry point) plus the ordered list of
//!   per-function fingerprints. Identical programs agree; a k-function
//!   edit changes exactly k leaves and the root.
//!
//! The digests are 128-bit FNV-1a — the same non-cryptographic family
//! the `mcr-dump` wire layer uses for [`ContentHash`]-keyed stores; this
//! crate sits below `mcr-dump` in the dependency order, so it carries
//! its own copy of the (standard) constants. The raw `u128` returned
//! here is what `mcr-core` wraps into its `ContentHash` keys.
//!
//! [`ContentHash`]: https://en.wikipedia.org/wiki/Fowler–Noll–Vo_hash_function

use crate::ir::{Function, Program};
use std::hash::{Hash, Hasher};

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Domain tag for a single function's fingerprint.
const FUNC_DOMAIN: &[u8] = b"MCRFN1";
/// Domain tag for the program-level Merkle root.
const PROGRAM_DOMAIN: &[u8] = b"MCRPM1";

/// Streaming FNV-1a 128 state that doubles as a [`std::hash::Hasher`],
/// so `#[derive(Hash)]` IR types feed their canonical field-order byte
/// stream straight into the digest.
#[derive(Debug, Clone)]
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    fn new() -> Fnv128 {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn finish(&self) -> u64 {
        (self.state as u64) ^ ((self.state >> 64) as u64)
    }
}

/// The stable content fingerprint of one function.
///
/// Two [`Function`] values hash identically exactly when every
/// `Hash`-visible field agrees — independent of which program revision
/// the function appears in, so a cache keyed on this digest is shared by
/// every program that contains the identical function.
///
/// # Examples
///
/// ```
/// let a = mcr_lang::compile("fn helper() { } fn main() { }").unwrap();
/// let b = mcr_lang::compile("global g: int; fn helper() { } fn main() { g = 1; }").unwrap();
/// // `helper` is byte-for-byte the same function in both programs.
/// assert_eq!(
///     mcr_lang::function_fingerprint(&a.funcs[0]),
///     mcr_lang::function_fingerprint(&b.funcs[0]),
/// );
/// // `main` differs.
/// assert_ne!(
///     mcr_lang::function_fingerprint(&a.funcs[1]),
///     mcr_lang::function_fingerprint(&b.funcs[1]),
/// );
/// ```
pub fn function_fingerprint(func: &Function) -> u128 {
    let mut h = Fnv128::new();
    h.update(FUNC_DOMAIN);
    func.hash(&mut h);
    h.state
}

/// The program fingerprint: a Merkle root over the shared program state
/// and the ordered per-function fingerprints.
///
/// Editing k functions of an N-function program changes exactly k
/// leaves (see [`function_fingerprint`]) plus this root; the other
/// N − k leaves are bit-identical across the two revisions.
pub fn program_fingerprint(program: &Program) -> u128 {
    let mut h = Fnv128::new();
    h.update(PROGRAM_DOMAIN);
    program.globals.hash(&mut h);
    program.locks.hash(&mut h);
    program.main.hash(&mut h);
    h.update(&(program.funcs.len() as u64).to_le_bytes());
    for func in &program.funcs {
        h.update(&function_fingerprint(func).to_le_bytes());
    }
    h.state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const BASE: &str = r#"
        global x: int;
        lock l;
        fn a() { x = 1; }
        fn b() { acquire l; x = 2; release l; }
        fn main() { spawn a(); spawn b(); }
    "#;

    #[test]
    fn identical_programs_agree() {
        let p1 = compile(BASE).unwrap();
        let p2 = compile(BASE).unwrap();
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
        for (f1, f2) in p1.funcs.iter().zip(&p2.funcs) {
            assert_eq!(function_fingerprint(f1), function_fingerprint(f2));
        }
    }

    #[test]
    fn editing_one_function_moves_only_its_leaf() {
        let p1 = compile(BASE).unwrap();
        let p2 = compile(&BASE.replace("x = 2;", "x = 3;")).unwrap();
        assert_ne!(program_fingerprint(&p1), program_fingerprint(&p2));
        let moved: Vec<usize> = p1
            .funcs
            .iter()
            .zip(&p2.funcs)
            .enumerate()
            .filter(|(_, (f1, f2))| function_fingerprint(f1) != function_fingerprint(f2))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(moved, vec![1], "only `b` may change");
    }

    #[test]
    fn shared_state_feeds_the_root_but_not_the_leaves() {
        let p1 = compile(BASE).unwrap();
        let p2 = compile(&BASE.replace("global x: int;", "global x: int; global y: int;")).unwrap();
        assert_ne!(program_fingerprint(&p1), program_fingerprint(&p2));
        // Function bodies are untouched, so every leaf survives.
        for (f1, f2) in p1.funcs.iter().zip(&p2.funcs) {
            assert_eq!(function_fingerprint(f1), function_fingerprint(f2));
        }
    }

    #[test]
    fn function_order_feeds_the_root() {
        let p = compile(BASE).unwrap();
        let mut swapped = p.clone();
        swapped.funcs.swap(0, 1);
        assert_ne!(program_fingerprint(&p), program_fingerprint(&swapped));
    }

    #[test]
    fn leaf_and_root_domains_are_separated() {
        // A single-function program's root never equals the bare
        // function fingerprint (domain tags differ).
        let p = compile("fn main() { }").unwrap();
        assert_ne!(program_fingerprint(&p), function_fingerprint(&p.funcs[0]));
    }
}
