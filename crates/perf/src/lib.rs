//! A deterministic, allocation-free hasher for the substrate's hot maps.
//!
//! The DRAM device and the page allocator keep their per-row and per-frame
//! bookkeeping in integer-keyed maps that sit on every simulated access.
//! This crate provides [`FastHasher`] (a fixed-key SplitMix64 finalizer)
//! and the [`FastMap`]/[`FastSet`] aliases built on it; see [`hash`] for
//! the rationale and the determinism argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;

pub use hash::{BuildFastHasher, FastHasher, FastMap, FastSet};
