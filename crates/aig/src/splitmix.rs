//! The SplitMix64 step shared by every deterministic generator and
//! hash mixer in the workspace, so that they all yield the same
//! sequences.

/// One SplitMix64 step: advances `state` by the golden-ratio increment
/// and returns the mixed new state. Seeding with `s` and calling it
/// repeatedly gives the standard SplitMix64 sequence; a single step from
/// a throwaway state is the SplitMix64 finalizer of that state plus the
/// increment.
///
/// # Examples
///
/// ```
/// let mut state = 7;
/// let a = eco_aig::splitmix64(&mut state);
/// let b = eco_aig::splitmix64(&mut state);
/// assert_ne!(a, b);
/// assert_eq!(a, eco_aig::splitmix64(&mut 7));
/// ```
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
