//! Cryptographic primitives for ContractShard, implemented from scratch.
//!
//! * [`sha256`](mod@sha256) — a complete FIPS 180-4 SHA-256, used for block hashes,
//!   transaction ids and all derived randomness.
//! * [`prf`] — a keyed pseudo-random function built on SHA-256.
//! * [`vrf`] — a *simulated* verifiable random function. The paper uses the
//!   VRF of Micali et al. for leader election (Sec. III-B); the evaluation
//!   only relies on the VRF contract (unpredictable output + public
//!   verification), which we provide via a keyed hash under an
//!   honest-key-registry model. See DESIGN.md §2 for the substitution note.
//! * [`beacon`] — a RandHound-style randomness beacon: maps each miner's
//!   public key plus the leader's randomness into one of 100 groups, exactly
//!   the interface Sec. III-B consumes.

pub mod beacon;
pub mod prf;
pub mod sha256;
pub mod vrf;

pub use beacon::RandomnessBeacon;
pub use prf::Prf;
pub use sha256::{sha256, sha256_concat, Sha256};
pub use vrf::{rank_leaders, Vrf, VrfProof, VrfPublicKey, VrfSecretKey};
