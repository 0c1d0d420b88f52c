//! Store codecs for [`SparseFeatures`] and [`KernelMatrix`].
//!
//! Feature vectors are the expensive half of a kernel-distance
//! measurement, so they are the primary reuse target: a stored φ(G) can
//! feed any number of Gram matrices (kernel sweeps, figure regeneration)
//! without touching the graph again.
//!
//! Both encodings are canonical — features are written sorted by feature
//! id (the in-memory map iterates in exactly that order), matrices in
//! row-major order — so a warm read re-encodes to the identical bytes.

use crate::feature::SparseFeatures;
use crate::matrix::KernelMatrix;
use anacin_store::{Artifact, ArtifactKind, ByteReader, ByteWriter, WireError};

impl Artifact for SparseFeatures {
    const KIND: ArtifactKind = ArtifactKind::Features;

    fn encode_into(&self, w: &mut ByteWriter) {
        w.seq_len(self.nnz());
        for (id, weight) in self.iter() {
            w.u64(id);
            w.f64(weight);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(16)?;
        let mut entries: Vec<(u64, f64)> = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u64()?;
            // Ids must be strictly increasing: that both rejects damaged
            // payloads and guarantees decode(encode(x)) == x (duplicate
            // ids would silently sum).
            if entries.last().is_some_and(|&(prev, _)| id <= prev) {
                return Err(WireError::BadLength(id));
            }
            entries.push((id, r.f64()?));
        }
        Ok(SparseFeatures::from_sorted(entries))
    }
}

impl Artifact for KernelMatrix {
    const KIND: ArtifactKind = ArtifactKind::Gram;

    fn encode_into(&self, w: &mut ByteWriter) {
        w.str(self.kernel_name());
        w.u64(self.len() as u64);
        w.seq_len(self.values().len());
        for &v in self.values() {
            w.f64(v);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let kernel_name = r.str()?;
        let n = r.u64()? as usize;
        let len = r.seq_len(8)?;
        if len != n * n {
            return Err(WireError::BadLength(len as u64));
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(r.f64()?);
        }
        Ok(KernelMatrix::from_parts(n, values, kernel_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::GraphKernel;
    use crate::matrix::gram_matrix;
    use crate::wl::WlKernel;
    use anacin_event_graph::EventGraph;
    use anacin_mpisim::prelude::*;

    fn race_graphs(count: u64) -> Vec<EventGraph> {
        (0..count)
            .map(|seed| {
                let mut b = ProgramBuilder::new(5);
                for r in 1..5 {
                    b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
                }
                for _ in 1..5 {
                    b.rank(Rank(0)).recv_any(TagSpec::Any);
                }
                let t = simulate(&b.build(), &SimConfig::with_nd_percent(100.0, seed)).unwrap();
                EventGraph::from_trace(&t)
            })
            .collect()
    }

    #[test]
    fn features_round_trip_bit_exactly() {
        let k = WlKernel::default();
        for g in race_graphs(4) {
            let f = k.features(&g);
            let bytes = f.to_wire();
            let back = SparseFeatures::from_wire(&bytes).unwrap();
            assert_eq!(back, f);
            // Canonical: the sorted encoding is independent of HashMap
            // iteration order, so re-encoding is byte-identical.
            assert_eq!(back.to_wire(), bytes);
        }
    }

    /// The decoder allocates each vector at its length, as extraction
    /// does: a warm campaign keeps every run's vector for its Gram stage.
    #[test]
    fn decoded_features_equal_computed_ones_and_hold_no_spare_capacity() {
        let k = WlKernel::default();
        for g in race_graphs(4) {
            let computed = k.features(&g);
            let decoded = SparseFeatures::from_wire(&computed.to_wire()).unwrap();
            assert_eq!(decoded, computed);
            assert_eq!(decoded.capacity(), decoded.nnz());
        }
    }

    #[test]
    fn features_reject_unsorted_or_duplicate_ids() {
        let mut w = anacin_store::ByteWriter::new();
        w.seq_len(2);
        w.u64(7);
        w.f64(1.0);
        w.u64(7); // duplicate
        w.f64(2.0);
        assert!(SparseFeatures::from_wire(&w.into_bytes()).is_err());

        let mut w = anacin_store::ByteWriter::new();
        w.seq_len(2);
        w.u64(9);
        w.f64(1.0);
        w.u64(3); // out of order
        w.f64(2.0);
        assert!(SparseFeatures::from_wire(&w.into_bytes()).is_err());
    }

    #[test]
    fn matrix_round_trips_bit_exactly() {
        let graphs = race_graphs(5);
        let m = gram_matrix(&WlKernel::default(), &graphs, 2);
        let bytes = m.to_wire();
        let back = KernelMatrix::from_wire(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_wire(), bytes);
        assert_eq!(back.kernel_name(), m.kernel_name());
        assert_eq!(back.mean_pairwise_distance(), m.mean_pairwise_distance());
    }

    #[test]
    fn matrix_rejects_mismatched_dimensions() {
        let mut w = anacin_store::ByteWriter::new();
        w.str("wl");
        w.u64(3); // claims 3×3…
        w.seq_len(4); // …but carries 4 values
        for _ in 0..4 {
            w.f64(0.0);
        }
        assert!(KernelMatrix::from_wire(&w.into_bytes()).is_err());
    }

    #[test]
    fn gram_from_stored_features_matches_direct_gram() {
        let graphs = race_graphs(6);
        let k = WlKernel::default();
        let direct = gram_matrix(&k, &graphs, 3);
        // Round-trip every feature vector through the wire format, then
        // build the Gram matrix from the decoded copies: the warm path.
        let feats: Vec<SparseFeatures> = graphs
            .iter()
            .map(|g| SparseFeatures::from_wire(&k.features(g).to_wire()).unwrap())
            .collect();
        let warm =
            crate::matrix::gram_from_features_with_metrics(direct.kernel_name(), &feats, 3, None);
        assert_eq!(warm, direct);
    }
}
