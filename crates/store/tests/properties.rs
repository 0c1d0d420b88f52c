//! Property-based tests of the store's wire format, fingerprints and the
//! put/get path: anything written must read back bit-identical, under any
//! interleaving of primitive types and any payload.

use anacin_store::{
    Artifact, ArtifactKind, ArtifactStore, ByteReader, ByteWriter, DistanceSample, Fingerprint,
};
use proptest::prelude::*;

/// One wire primitive, for generating arbitrary interleavings.
#[derive(Debug, Clone)]
enum Prim {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    I32(i32),
    F64(f64),
    Bool(bool),
    Str(String),
}

fn short_string() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/;_";
    prop::collection::vec(0usize..ALPHABET.len(), 0..24)
        .prop_map(|ix| ix.iter().map(|&i| ALPHABET[i] as char).collect())
}

fn prim() -> impl Strategy<Value = Prim> {
    prop_oneof![
        (0u8..=u8::MAX).prop_map(Prim::U8),
        (0u16..=u16::MAX).prop_map(Prim::U16),
        (0u32..u32::MAX).prop_map(Prim::U32),
        (0u64..u64::MAX).prop_map(Prim::U64),
        (i32::MIN..i32::MAX).prop_map(Prim::I32),
        (-1e12f64..1e12).prop_map(Prim::F64),
        (0u8..2).prop_map(|b| Prim::Bool(b == 1)),
        short_string().prop_map(Prim::Str),
    ]
}

fn temp_store(tag: &str) -> (std::path::PathBuf, ArtifactStore) {
    let dir =
        std::env::temp_dir().join(format!("anacin_store_prop_{}_{}", std::process::id(), tag));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("open temp store");
    (dir, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of primitives reads back exactly as written, and the
    /// reader finishes with no bytes left over.
    #[test]
    fn wire_primitives_round_trip(prims in prop::collection::vec(prim(), 0..40)) {
        let mut w = ByteWriter::new();
        for p in &prims {
            match p {
                Prim::U8(v) => w.u8(*v),
                Prim::U16(v) => w.u16(*v),
                Prim::U32(v) => w.u32(*v),
                Prim::U64(v) => w.u64(*v),
                Prim::I32(v) => w.i32(*v),
                Prim::F64(v) => w.f64(*v),
                Prim::Bool(v) => w.bool(*v),
                Prim::Str(v) => w.str(v),
            }
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for p in &prims {
            match p {
                Prim::U8(v) => prop_assert_eq!(*v, r.u8().unwrap()),
                Prim::U16(v) => prop_assert_eq!(*v, r.u16().unwrap()),
                Prim::U32(v) => prop_assert_eq!(*v, r.u32().unwrap()),
                Prim::U64(v) => prop_assert_eq!(*v, r.u64().unwrap()),
                Prim::I32(v) => prop_assert_eq!(*v, r.i32().unwrap()),
                Prim::F64(v) => prop_assert_eq!(v.to_bits(), r.f64().unwrap().to_bits()),
                Prim::Bool(v) => prop_assert_eq!(*v, r.bool().unwrap()),
                Prim::Str(v) => prop_assert_eq!(v, &r.str().unwrap()),
            }
        }
        prop_assert!(r.finish().is_ok());
    }

    /// A distance sample survives the full encode → frame → disk → decode
    /// path bit-for-bit, read back through a second store handle.
    #[test]
    fn distance_sample_round_trips_through_the_store(
        values in prop::collection::vec(-1e9f64..1e9, 0..64),
        key in 0u64..u64::MAX,
    ) {
        let (dir, store) = temp_store("dist");
        let sample = DistanceSample(values);
        let mut h = anacin_store::FingerprintHasher::new();
        h.write_u64(key);
        let fp = h.finish();
        store.put(fp, &sample).unwrap();

        let reopened = ArtifactStore::open(&dir).unwrap();
        let back: DistanceSample = reopened.get(fp).unwrap().expect("stored sample");
        let want: Vec<u64> = sample.0.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = back.0.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(want, got);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Raw payloads round-trip for every artifact kind, and a fingerprint
    /// survives its hex rendering.
    #[test]
    fn raw_bytes_round_trip_for_every_kind(
        payload in prop::collection::vec(0u8..=u8::MAX, 0..512),
        key in 0u64..u64::MAX,
        kind_idx in 0usize..5,
    ) {
        let kind = [
            ArtifactKind::Trace,
            ArtifactKind::Graph,
            ArtifactKind::Features,
            ArtifactKind::Gram,
            ArtifactKind::Distances,
        ][kind_idx];
        let fp = Fingerprint::of(&key.to_le_bytes());
        prop_assert_eq!(Fingerprint::from_hex(&fp.hex()), Some(fp));

        let (dir, store) = temp_store("raw");
        store.put_bytes(fp, kind, &payload).unwrap();
        let back = store.get_bytes(fp, kind).unwrap().expect("stored payload");
        prop_assert_eq!(&payload, &back);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating an encoded distance sample anywhere never panics: decode
    /// reports a wire error instead.
    #[test]
    fn truncated_frames_error_cleanly(
        values in prop::collection::vec(-1e9f64..1e9, 1..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let sample = DistanceSample(values);
        let bytes = sample.to_wire();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(DistanceSample::from_wire(&bytes[..cut]).is_err());
        }
    }
}
