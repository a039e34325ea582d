//! Cryptographic substrate for the EncDBDB reproduction.
//!
//! The paper relies on hardware-supported AES-128-GCM as its probabilistic
//! authenticated encryption (PAE, §2.3) and on SGX's attestation machinery
//! for key provisioning. No external crypto crates are available in this
//! environment, so this crate implements everything from scratch:
//!
//! * [`aes`] — portable AES-128 block cipher (encryption direction; GCM
//!   needs no inverse cipher).
//! * [`gcm`] — AES-128-GCM [`gcm::Pae`], the paper's PAE scheme, plus the
//!   [`gcm::Ciphertext`] wire format (`IV(12) ‖ body ‖ TAG(16)`). On
//!   x86-64 CPUs with AES-NI and PCLMULQDQ a `Pae` runs on those
//!   instructions (the private `gcm_x86` module, the one place the
//!   workspace steps outside safe Rust); elsewhere on [`aes`] and a table
//!   GHASH. Same bytes either way.
//! * [`sha256`], [`hmac`], [`hkdf`] — hashing and key derivation; the
//!   per-column key `SK_D = DeriveKey(SK_DB, table, column)` of §4.2 is
//!   [`hkdf::derive_column_key`].
//! * [`x25519`] — Curve25519 Diffie–Hellman used by the simulated remote
//!   attestation channel of the `enclave-sim` crate.
//! * [`ct`] — constant-time comparison helpers.
//! * [`keys`] — key newtypes that zeroize on drop and redact in `Debug`.
//!
//! # Example
//!
//! ```
//! use encdbdb_crypto::gcm::Pae;
//! use encdbdb_crypto::keys::Key128;
//!
//! let key = Key128::from_bytes([7u8; 16]);
//! let pae = Pae::new(&key);
//! let ct = pae.encrypt(&[1u8; 12], b"value", b"");
//! assert_eq!(pae.decrypt(&ct, b"").unwrap(), b"value");
//! ```

// `deny`, not `forbid`: the hardware GCM backend (`gcm_x86`) is the one
// module that opts back in, for its CPU-feature-detected dispatch calls.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ct;
pub mod error;
pub mod gcm;
#[cfg(target_arch = "x86_64")]
mod gcm_x86;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod sha256;
pub mod x25519;

pub use error::CryptoError;
pub use gcm::{Ciphertext, Pae};
pub use keys::{Key128, Key256};
