//! Sparse feature vectors in the kernels' explicit feature spaces.
//!
//! Every kernel in this crate has an explicit feature map φ(G): a sparse
//! vector indexed by stable 64-bit label hashes. The kernel value is then
//! simply `k(G, H) = ⟨φ(G), φ(H)⟩`, which makes Gram-matrix computation
//! embarrassingly parallel: features once per graph, dot products per pair.
//!
//! The vector is a flat `(id, weight)` array sorted by id. That buys two
//! things at once:
//!
//! * **Throughput** — the dot product is a linear merge-join over two
//!   contiguous arrays, a streaming scan instead of one hash lookup (and
//!   likely cache miss) per feature; bulk construction is one sort instead
//!   of per-key map inserts.
//! * **Reproducibility** — every reduction (dot products, norms,
//!   normalisation totals) accumulates in increasing-id order, so each
//!   value is a pure function of the *contents*, never of instance
//!   identity. Two extractions of φ(G) in different processes (or Gram
//!   matrices built at different thread counts) produce bit-identical numbers
//!   even for kernels with non-integer weights, where float summation
//!   order would otherwise leak through. The HashMap-backed predecessor
//!   violated this: iteration order depended on each map's random hasher
//!   seed.

/// Which dot-product implementation the Gram stage uses.
///
/// Purely an execution-strategy knob, like the thread count and the gram
/// schedule: both kinds produce **bit-identical** sums (the blocked variant
/// only skips runs of ids that match nothing, and a skipped non-match
/// contributes exactly `+0.0`), so the choice is excluded from
/// incremental-store fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DotKind {
    /// The branchless linear merge-join ([`SparseFeatures::dot`]).
    #[default]
    Scalar,
    /// Block-at-a-time merge-join with galloping skip over disjoint key
    /// ranges ([`SparseFeatures::dot_blocked`]).
    Blocked,
}

impl DotKind {
    /// Compute `⟨a, b⟩` with this implementation.
    #[inline]
    pub fn dot(self, a: &SparseFeatures, b: &SparseFeatures) -> f64 {
        match self {
            DotKind::Scalar => a.dot(b),
            DotKind::Blocked => a.dot_blocked(b),
        }
    }

    fn as_str(&self) -> &'static str {
        match self {
            DotKind::Scalar => "scalar",
            DotKind::Blocked => "blocked",
        }
    }
}

impl std::fmt::Display for DotKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for DotKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(DotKind::Scalar),
            "blocked" => Ok(DotKind::Blocked),
            other => Err(format!(
                "unknown dot kind '{other}' (expected 'scalar' or 'blocked')"
            )),
        }
    }
}

// Manual serde impls: a missing field deserialises as `Null`, which maps to
// the default — so configs serialised before the dot knob existed keep
// loading.
impl serde::Serialize for DotKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

impl serde::Deserialize for DotKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(DotKind::default());
        }
        match v.as_str() {
            Some(s) => s.parse().map_err(serde::Error::custom),
            None => Err(serde::Error::custom("dot kind must be a string")),
        }
    }
}

/// A sparse feature vector keyed by stable 64-bit feature ids.
///
/// Invariant: `map` is sorted by id and ids are unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseFeatures {
    map: Vec<(u64, f64)>,
}

impl SparseFeatures {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk constructor: sort once, then sum duplicate ids in their
    /// original relative order (a stable sort keeps that order, so this is
    /// exactly equivalent to [`SparseFeatures::add`] in a loop). Much
    /// cheaper than repeated `add` when most ids are new.
    pub fn from_pairs(mut pairs: Vec<(u64, f64)>) -> Self {
        pairs.sort_by_key(|&(id, _)| id);
        let mut map: Vec<(u64, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match map.last_mut() {
                Some(last) if last.0 == id => last.1 += w,
                _ => map.push((id, w)),
            }
        }
        Self { map }
    }

    /// Bulk constructor for counts: one feature per distinct id in
    /// `keys`, weighted by how often it occurs — exactly a
    /// [`SparseFeatures::bump`] per key, since a count below 2^53 is the
    /// same `f64` however it is summed. Sorts once, then allocates the
    /// vector at its exact length: callers keep many of these.
    pub(crate) fn from_keys(mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        let runs = keys.chunk_by(|a, b| a == b);
        let mut map: Vec<(u64, f64)> = Vec::with_capacity(runs.clone().count());
        map.extend(runs.map(|run| (run[0], run.len() as f64)));
        Self { map }
    }

    /// The vector holding exactly `entries`, whose ids strictly increase
    /// (the store's decoder checks that as it reads them).
    pub(crate) fn from_sorted(entries: Vec<(u64, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        Self { map: entries }
    }

    /// Add `weight` to feature `id`.
    pub fn add(&mut self, id: u64, weight: f64) {
        match self.map.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(pos) => self.map[pos].1 += weight,
            Err(pos) => self.map.insert(pos, (id, weight)),
        }
    }

    /// Increment feature `id` by one.
    pub fn bump(&mut self, id: u64) {
        self.add(id, 1.0);
    }

    /// The weight of feature `id` (0 when absent).
    pub fn get(&self, id: u64) -> f64 {
        match self.map.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(pos) => self.map[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Number of nonzero features.
    pub fn nnz(&self) -> usize {
        self.map.len()
    }

    /// True when no feature is set.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The `(id, weight)` entries, sorted by id.
    pub(crate) fn entries(&self) -> &[(u64, f64)] {
        &self.map
    }

    /// Entries the vector has room for without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// Inner product with another vector: a linear merge-join over the two
    /// sorted arrays. Summation runs in increasing shared-id order, so the
    /// result is deterministic and exactly symmetric in its arguments
    /// bit-for-bit.
    pub fn dot(&self, other: &SparseFeatures) -> f64 {
        let a = &self.map;
        let b = &other.map;
        let (mut i, mut j) = (0usize, 0usize);
        let mut sum = 0.0;
        // Branchless advance: the comparisons compile to conditional moves,
        // so the (data-dependent, unpredictable) interleaving of the two id
        // sequences never stalls the pipeline on a branch miss. Ids match
        // on a fraction of iterations only, so the wasted multiply on
        // non-matches is cheaper than a mispredict per iteration.
        while i < a.len() && j < b.len() {
            let (ka, wa) = a[i];
            let (kb, wb) = b[j];
            let prod = wa * wb;
            sum += if ka == kb { prod } else { 0.0 };
            i += (ka <= kb) as usize;
            j += (kb <= ka) as usize;
        }
        sum
    }

    /// Inner product via a blocked merge-join with galloping skip.
    ///
    /// The scalar merge-join walks both arrays one element at a time even
    /// through long runs of ids that exist on only one side — common when
    /// two runs share part of their label vocabulary but diverge elsewhere.
    /// This variant looks at both arrays a fixed-size block at a time:
    /// when a whole block's key range lies strictly below the other
    /// cursor's key, the block cannot contain a match and the cursor
    /// gallops past it (doubling probe steps, then a binary search within
    /// the last doubling) instead of visiting every element. Blocks whose
    /// key ranges overlap fall back to the scalar branchless merge,
    /// bounded to the block.
    ///
    /// **Bit-exactness.** Matching id pairs are visited in exactly the
    /// same increasing-id order as [`SparseFeatures::dot`], and each match
    /// accumulates through the identical expression `sum += wa * wb`.
    /// Skipped elements are precisely those the scalar loop would have
    /// accumulated as `sum += 0.0`, and `x + 0.0` never changes the bits
    /// of any sum reachable here (the accumulator starts at `+0.0` and
    /// `+0.0 + ±0.0 = +0.0`). Differential-tested against the scalar dot
    /// bit-for-bit in this module and in `tests/properties.rs`.
    pub fn dot_blocked(&self, other: &SparseFeatures) -> f64 {
        /// Elements examined per block before the disjointness test.
        const BLOCK: usize = 64;

        /// First index in `s` whose id is `>= key`: exponential (galloping)
        /// probe followed by a binary search within the last doubling.
        fn gallop(s: &[(u64, f64)], key: u64) -> usize {
            let mut hi = 1usize;
            while hi < s.len() && s[hi - 1].0 < key {
                hi *= 2;
            }
            let lo = hi / 2;
            let hi = hi.min(s.len());
            lo + s[lo..hi].partition_point(|&(id, _)| id < key)
        }

        let a = &self.map;
        let b = &other.map;
        let (mut i, mut j) = (0usize, 0usize);
        let mut sum = 0.0;
        while i < a.len() && j < b.len() {
            let a_end = (i + BLOCK).min(a.len());
            let b_end = (j + BLOCK).min(b.len());
            // Disjoint key ranges: the lower block holds no match for
            // anything at or beyond the other cursor — skip past it and
            // keep galloping to the first id that could match.
            if a[a_end - 1].0 < b[j].0 {
                i = a_end + gallop(&a[a_end..], b[j].0);
                continue;
            }
            if b[b_end - 1].0 < a[i].0 {
                j = b_end + gallop(&b[b_end..], a[i].0);
                continue;
            }
            // Overlapping ranges: scalar branchless merge within the
            // blocks — identical accumulation order and expression to
            // `dot`.
            while i < a_end && j < b_end {
                let (ka, wa) = a[i];
                let (kb, wb) = b[j];
                let prod = wa * wb;
                sum += if ka == kb { prod } else { 0.0 };
                i += (ka <= kb) as usize;
                j += (kb <= ka) as usize;
            }
        }
        sum
    }

    /// Squared Euclidean norm, `⟨φ, φ⟩`.
    pub fn norm_sq(&self) -> f64 {
        self.map.iter().map(|&(_, w)| w * w).sum()
    }

    /// Scale every weight by `s`.
    pub fn scale(&mut self, s: f64) {
        for (_, w) in &mut self.map {
            *w *= s;
        }
    }

    /// Iterate `(id, weight)` pairs in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.map.iter().copied()
    }

    /// L1 distance to another vector (root cause scores a window's
    /// divergence with it). Accumulates over the id union in increasing
    /// order, so it shares the determinism guarantee of
    /// [`SparseFeatures::dot`].
    pub fn l1_distance(&self, other: &SparseFeatures) -> f64 {
        let a = &self.map;
        let b = &other.map;
        let (mut i, mut j) = (0usize, 0usize);
        let mut sum = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    sum += a[i].1.abs();
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    sum += b[j].1.abs();
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    sum += (a[i].1 - b[j].1).abs();
                    i += 1;
                    j += 1;
                }
            }
        }
        sum += a[i..].iter().map(|&(_, w)| w.abs()).sum::<f64>();
        sum += b[j..].iter().map(|&(_, w)| w.abs()).sum::<f64>();
        sum
    }
}

impl FromIterator<(u64, f64)> for SparseFeatures {
    fn from_iter<T: IntoIterator<Item = (u64, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_basic() {
        let a: SparseFeatures = [(1, 2.0), (2, 3.0)].into_iter().collect();
        let b: SparseFeatures = [(2, 4.0), (3, 5.0)].into_iter().collect();
        assert_eq!(a.dot(&b), 12.0);
        assert_eq!(b.dot(&a), 12.0);
        assert_eq!(a.norm_sq(), 13.0);
        assert_eq!(a.dot(&a), a.norm_sq());
    }

    #[test]
    fn bump_and_get() {
        let mut f = SparseFeatures::new();
        f.bump(7);
        f.bump(7);
        f.add(9, 0.5);
        assert_eq!(f.get(7), 2.0);
        assert_eq!(f.get(9), 0.5);
        assert_eq!(f.get(10), 0.0);
        assert_eq!(f.nnz(), 2);
        assert!(!f.is_empty());
        assert!(SparseFeatures::new().is_empty());
    }

    #[test]
    fn merge_and_scale() {
        let mut a: SparseFeatures = [(1, 1.0)].into_iter().collect();
        let b: SparseFeatures = [(1, 2.0), (2, 3.0)].into_iter().collect();
        for (id, w) in b.iter() {
            a.add(id, w);
        }
        assert_eq!(a.get(1), 3.0);
        assert_eq!(a.get(2), 3.0);
        a.scale(0.5);
        assert_eq!(a.get(1), 1.5);
    }

    #[test]
    fn l1_distance_symmetric_and_zero_on_equal() {
        let a: SparseFeatures = [(1, 1.0), (2, 2.0)].into_iter().collect();
        let b: SparseFeatures = [(2, 1.0), (3, 4.0)].into_iter().collect();
        assert_eq!(a.l1_distance(&a), 0.0);
        assert_eq!(a.l1_distance(&b), b.l1_distance(&a));
        assert_eq!(a.l1_distance(&b), 1.0 + 1.0 + 4.0);
    }

    #[test]
    fn dot_merges_mismatched_supports_correctly() {
        let big: SparseFeatures = (0..100).map(|i| (i, 1.0)).collect();
        let small: SparseFeatures = [(5, 2.0), (200, 7.0)].into_iter().collect();
        assert_eq!(big.dot(&small), 2.0);
        assert_eq!(small.dot(&big), 2.0);
    }

    /// `from_pairs` is exactly an `add` loop: duplicates sum in their
    /// original relative order (the sort is stable), new ids land sorted.
    /// `from_keys` is exactly a `bump` loop, and holds no spare capacity.
    #[test]
    fn from_pairs_matches_add_loop() {
        let pairs = vec![(9, 1.0), (3, 0.25), (9, 2.0), (1, 4.0), (3, 0.5)];
        let bulk = SparseFeatures::from_pairs(pairs.clone());
        let mut loop_built = SparseFeatures::new();
        for (id, w) in pairs {
            loop_built.add(id, w);
        }
        assert_eq!(bulk, loop_built);
        let ids: Vec<u64> = bulk.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 9]);

        let key_lists: [&[u64]; 4] = [
            &[9, 3, u64::MAX, 9, 1, 3, 9, 0, u64::MAX],
            &[5, 5, 5],
            &[42],
            &[],
        ];
        for keys in key_lists {
            let counted = SparseFeatures::from_keys(keys.to_vec());
            let mut bumped = SparseFeatures::new();
            for &k in keys {
                bumped.bump(k);
            }
            assert_eq!(counted, bumped, "{keys:?}");
            assert_eq!(counted.map.capacity(), counted.map.len(), "{keys:?}");
        }
    }

    /// Deterministic pseudo-random vector shapes for the blocked-dot
    /// differential: splitmix64 ids so supports interleave, cluster, and
    /// leave long disjoint runs.
    fn pseudo_vector(seed: u64, len: usize, stride: u64) -> SparseFeatures {
        let mut x = seed;
        (0..len)
            .map(|i| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let id = (z ^ (z >> 31)) % (len as u64 * stride + 1);
                (id, 0.1 + (i as f64) * 0.37)
            })
            .collect()
    }

    /// The tier-1 exactness contract: the blocked merge-join with
    /// galloping skip is bit-identical to the scalar merge-join on every
    /// shape — empty, tiny, fully disjoint, fully shared, clustered, and
    /// randomly interleaved (including lengths straddling the block size).
    #[test]
    fn blocked_dot_is_bit_identical_to_scalar() {
        let shapes: Vec<(SparseFeatures, SparseFeatures)> = vec![
            (SparseFeatures::new(), SparseFeatures::new()),
            (pseudo_vector(1, 3, 5), SparseFeatures::new()),
            // Fully disjoint ranges (gallop skips everything).
            (
                (0..500u64).map(|i| (i, 1.5 + i as f64)).collect(),
                (1000..1600u64).map(|i| (i, 2.5 + i as f64)).collect(),
            ),
            // Identical supports (pure scalar path).
            (pseudo_vector(7, 300, 3), pseudo_vector(7, 300, 3)),
            // One tiny probe against a long run (gallop from both sides).
            (
                [(5_000, 2.0), (90_000, 7.0)].into_iter().collect(),
                (0..100_000u64).step_by(7).map(|i| (i, 0.25)).collect(),
            ),
        ];
        for (sa, sb) in &shapes {
            assert_eq!(sa.dot_blocked(sb).to_bits(), sa.dot(sb).to_bits());
            assert_eq!(sb.dot_blocked(sa).to_bits(), sb.dot(sa).to_bits());
        }
        // Random interleavings at lengths around the 64-element block size.
        for seed in 0..32u64 {
            for (la, lb) in [(1, 200), (63, 64), (64, 65), (129, 511), (777, 64)] {
                let a = pseudo_vector(seed, la, 2 + (seed % 11));
                let b = pseudo_vector(seed ^ 0xDEAD_BEEF, lb, 1 + (seed % 7));
                assert_eq!(
                    a.dot_blocked(&b).to_bits(),
                    a.dot(&b).to_bits(),
                    "seed {seed}, lens ({la}, {lb})"
                );
                assert_eq!(a.dot_blocked(&b).to_bits(), b.dot_blocked(&a).to_bits());
            }
        }
    }

    #[test]
    fn dot_kind_dispatch_parse_and_serde() {
        let a = pseudo_vector(3, 100, 4);
        let b = pseudo_vector(9, 90, 3);
        assert_eq!(DotKind::Scalar.dot(&a, &b).to_bits(), a.dot(&b).to_bits());
        assert_eq!(
            DotKind::Blocked.dot(&a, &b).to_bits(),
            a.dot_blocked(&b).to_bits()
        );
        assert_eq!("scalar".parse(), Ok(DotKind::Scalar));
        assert_eq!("blocked".parse(), Ok(DotKind::Blocked));
        assert!("simd".parse::<DotKind>().is_err());
        for k in [DotKind::Scalar, DotKind::Blocked] {
            let v = serde::Serialize::to_value(&k);
            assert_eq!(serde::Deserialize::from_value(&v), Ok(k));
            assert_eq!(k.to_string().parse(), Ok(k));
        }
        // Null (a config written before the knob existed) is the default.
        assert_eq!(
            <DotKind as serde::Deserialize>::from_value(&serde::Value::Null),
            Ok(DotKind::Scalar)
        );
    }

    /// The reproducibility contract: reductions accumulate in id order, so
    /// the same *contents* always give the same bits — regardless of the
    /// insertion order that built each instance (the HashMap-backed
    /// predecessor violated this for non-integer weights).
    #[test]
    fn reductions_are_insertion_order_independent() {
        let pairs: Vec<(u64, f64)> = (0..64u64)
            .map(|i| (i * 977, 0.1 + i as f64 * 0.3))
            .collect();
        let fwd: SparseFeatures = pairs.iter().copied().collect();
        let rev: SparseFeatures = pairs.iter().rev().copied().collect();
        assert_eq!(fwd.dot(&fwd).to_bits(), rev.dot(&rev).to_bits());
        assert_eq!(fwd.dot(&rev).to_bits(), rev.dot(&fwd).to_bits());
        assert_eq!(fwd.norm_sq().to_bits(), rev.norm_sq().to_bits());
        let total_fwd: f64 = fwd.iter().map(|(_, w)| w).sum();
        let total_rev: f64 = rev.iter().map(|(_, w)| w).sum();
        assert_eq!(total_fwd.to_bits(), total_rev.to_bits());
    }
}
