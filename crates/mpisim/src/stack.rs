//! Call-path (callstack) representation and interning.
//!
//! ANACIN-X attributes every MPI event to the call path that issued it;
//! root-cause analysis later ranks call paths by how often they appear in
//! highly non-deterministic regions of the event graph. Real ANACIN-X
//! captures native stacks with sst-dumpi; here mini-applications attach
//! synthetic-but-realistic call paths to each operation.
//!
//! Call paths are interned: a [`CallStackTable`] maps each distinct path to
//! a small dense [`CallStackId`] so traces store one `u32` per event.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an interned call path. `CallStackId::UNKNOWN` (id 0) is
/// reserved for events with no attributed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CallStackId(pub u32);

impl CallStackId {
    /// The reserved "no call path recorded" id.
    pub const UNKNOWN: CallStackId = CallStackId(0);

    /// The id as a `usize`, for indexing the table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A call path: outermost frame first, innermost (the MPI call) last.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CallStack {
    frames: Vec<String>,
}

impl CallStack {
    /// Build a call path from outermost to innermost frame.
    pub fn new<I, S>(frames: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        CallStack {
            frames: frames.into_iter().map(Into::into).collect(),
        }
    }

    /// The reserved empty path used for [`CallStackId::UNKNOWN`].
    pub fn unknown() -> Self {
        CallStack { frames: Vec::new() }
    }

    /// Frames from outermost to innermost.
    pub fn frames(&self) -> &[String] {
        &self.frames
    }

    /// The innermost frame (usually the MPI function), if any.
    pub fn leaf(&self) -> Option<&str> {
        self.frames.last().map(String::as_str)
    }

    /// Depth of the path in frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

impl fmt::Display for CallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.frames.is_empty() {
            return write!(f, "<unknown>");
        }
        write!(f, "{}", self.frames.join(" > "))
    }
}

/// Interner mapping call paths to dense [`CallStackId`]s.
///
/// Id 0 is always the empty/unknown path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CallStackTable {
    stacks: Vec<CallStack>,
    #[serde(skip)]
    index: HashMap<CallStack, CallStackId>,
}

impl Default for CallStackTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for CallStackTable {
    /// Equality over the interned paths only: the lookup index is a
    /// derived cache (serde skips it) and must not affect comparison.
    fn eq(&self, other: &Self) -> bool {
        self.stacks == other.stacks
    }
}

impl Eq for CallStackTable {}

impl CallStackTable {
    /// A table containing only the reserved unknown path.
    pub fn new() -> Self {
        let mut t = CallStackTable {
            stacks: Vec::new(),
            index: HashMap::new(),
        };
        let id = t.intern(CallStack::unknown());
        debug_assert_eq!(id, CallStackId::UNKNOWN);
        t
    }

    /// Intern a path, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, stack: CallStack) -> CallStackId {
        if let Some(&id) = self.index.get(&stack) {
            return id;
        }
        let id = CallStackId(
            u32::try_from(self.stacks.len()).expect("call-stack table exceeds u32 id space"),
        );
        self.index.insert(stack.clone(), id);
        self.stacks.push(stack);
        id
    }

    /// Convenience: intern a path given as frame strings.
    pub fn intern_frames<I, S>(&mut self, frames: I) -> CallStackId
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.intern(CallStack::new(frames))
    }

    /// Resolve an id back to its path.
    ///
    /// # Panics
    /// Panics if the id was not produced by this table.
    pub fn resolve(&self, id: CallStackId) -> &CallStack {
        &self.stacks[id.index()]
    }

    /// Resolve an id, returning `None` for foreign ids.
    pub fn get(&self, id: CallStackId) -> Option<&CallStack> {
        self.stacks.get(id.index())
    }

    /// Number of interned paths (including the reserved unknown path).
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// Always false: the unknown path is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over `(id, path)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CallStackId, &CallStack)> {
        self.stacks
            .iter()
            .enumerate()
            .map(|(i, s)| (CallStackId(i as u32), s))
    }

    /// Rebuild the lookup index after deserialization (serde skips it).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .stacks
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), CallStackId(i as u32)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_is_id_zero() {
        let t = CallStackTable::new();
        assert_eq!(t.len(), 1);
        assert!(t.resolve(CallStackId::UNKNOWN).frames.is_empty());
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = CallStackTable::new();
        let a = t.intern_frames(["main", "solve", "MPI_Send"]);
        let b = t.intern_frames(["main", "solve", "MPI_Send"]);
        let c = t.intern_frames(["main", "solve", "MPI_Recv"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = CallStackTable::new();
        let id = t.intern_frames(["main", "exchange", "MPI_Irecv"]);
        let s = t.resolve(id);
        assert_eq!(s.leaf(), Some("MPI_Irecv"));
        assert_eq!(s.depth(), 3);
        assert_eq!(s.to_string(), "main > exchange > MPI_Irecv");
    }

    #[test]
    fn display_unknown() {
        assert_eq!(CallStack::unknown().to_string(), "<unknown>");
    }

    #[test]
    fn iter_covers_all() {
        let mut t = CallStackTable::new();
        t.intern_frames(["a"]);
        t.intern_frames(["b"]);
        let ids: Vec<_> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn rebuild_index_preserves_ids() {
        let mut t = CallStackTable::new();
        let a = t.intern_frames(["x", "y"]);
        let json = serde_json_roundtrip(&t);
        let mut t2 = json;
        t2.rebuild_index();
        assert_eq!(t2.intern_frames(["x", "y"]), a);
    }

    fn serde_json_roundtrip(t: &CallStackTable) -> CallStackTable {
        // Manual round trip through the serde data model without a JSON dep
        // in this crate: clone and clear the index to mimic deserialization.
        let mut c = t.clone();
        c.index.clear();
        c
    }
}
