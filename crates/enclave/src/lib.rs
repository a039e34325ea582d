//! A software simulation of an SGX-like trusted execution environment.
//!
//! The paper (§2.2) uses Intel SGX for three capabilities:
//!
//! 1. **Memory isolation** — an enclave whose code/data cannot be read by
//!    any other software; the enclave can read the untrusted host memory,
//!    the host can only enter through a well-defined interface (ECALLs).
//! 2. **Remote attestation** — a measurement (hash) of the initial enclave
//!    code/data, signed by the platform, lets a remote party verify enclave
//!    identity and establish a secure channel into it.
//! 3. **Secure provisioning** — sensitive data (the database key `SK_DB`)
//!    is deployed over that channel directly into the enclave.
//!
//! No SGX hardware is available here, so this crate provides a faithful
//! *behavioural* substitute (see DESIGN.md):
//!
//! * [`Enclave`] encapsulates trusted state behind an explicit
//!   [`Enclave::ecall`] boundary; Rust's type system plays the role of the
//!   hardware isolation (trusted fields are private and never leave).
//! * [`memory`] tracks every load of untrusted memory into the enclave and
//!   accounts trusted-heap usage against the ~96 MiB EPC budget, so tests
//!   can *prove* the paper's claim that dictionary search needs only small,
//!   constant enclave memory independent of the dictionary size.
//! * [`attestation`] implements measurement-based remote attestation with a
//!   simulated platform/quoting key and verification service.
//! * [`channel`] establishes an authenticated X25519 + AES-GCM channel used
//!   to provision keys (paper Fig. 5, steps 1–2).
//! * [`sealing`] seals data to the enclave identity, as SGX sealing does.
//!
//! # Example
//!
//! ```
//! use enclave_sim::{Enclave, EnclaveLogic, TrustedEnv};
//!
//! struct Adder;
//! impl EnclaveLogic for Adder {
//!     type Call<'a> = (u32, u32);
//!     type Reply = u32;
//!     fn code_identity(&self) -> &'static [u8] { b"adder-v1" }
//!     fn dispatch(&mut self, _env: &mut TrustedEnv, call: (u32, u32)) -> u32 {
//!         call.0 + call.1
//!     }
//! }
//!
//! let mut enclave = Enclave::new(Adder);
//! assert_eq!(enclave.ecall((2, 3)), 5);
//! assert_eq!(enclave.counters().ecalls, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod channel;
pub mod error;
pub mod memory;
pub mod sealing;

pub use error::EnclaveError;
pub use memory::{EcallCounters, TrustedEnv, UntrustedMemory, EPC_BUDGET_BYTES};

use crate::attestation::{Measurement, Quote, SigningPlatform};
use encdbdb_crypto::keys::{Key128, Key256};
use encdbdb_crypto::x25519;
use rand::RngCore;

/// Trusted code running inside an enclave.
///
/// Implementors define the ECALL message type, the reply type, and the code
/// identity that is *measured* at enclave creation. The dispatch method
/// receives a [`TrustedEnv`] through which all untrusted-memory loads and
/// trusted allocations must flow, so that the simulator can account them.
pub trait EnclaveLogic: Send {
    /// The ECALL request message. The lifetime lets requests borrow
    /// host-owned (untrusted) memory, exactly like an SGX ECALL passing
    /// pointers into the host address space.
    type Call<'a>;
    /// The ECALL reply message.
    type Reply;

    /// Bytes representing the enclave's initial code and data; hashing them
    /// yields the enclave [`Measurement`] used by attestation.
    fn code_identity(&self) -> &'static [u8];

    /// Handles one ECALL inside the trusted environment.
    fn dispatch(&mut self, env: &mut TrustedEnv, call: Self::Call<'_>) -> Self::Reply;
}

/// An enclave instance hosting logic `L`.
///
/// All interaction goes through [`Enclave::ecall`]; the built-in
/// provisioning ECALLs ([`Enclave::attest`], [`Enclave::provision_key`])
/// model SGX's attestation + secure-channel flow.
#[derive(Debug)]
pub struct Enclave<L> {
    logic: L,
    env: TrustedEnv,
    measurement: Measurement,
    platform: SigningPlatform,
    /// Ephemeral DH secret generated for the current attestation round.
    dh_secret: Option<Key256>,
}

impl<L: EnclaveLogic> Enclave<L> {
    /// Creates (and "measures") an enclave on a default local platform.
    pub fn new(logic: L) -> Self {
        Self::on_platform(logic, SigningPlatform::default())
    }

    /// Creates an enclave on the given signing platform.
    pub fn on_platform(logic: L, platform: SigningPlatform) -> Self {
        let measurement = Measurement::of(logic.code_identity());
        Enclave {
            logic,
            env: TrustedEnv::new(),
            measurement,
            platform,
            dh_secret: None,
        }
    }

    /// The enclave's measurement (public).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Performs one ECALL into the trusted logic.
    pub fn ecall(&mut self, call: L::Call<'_>) -> L::Reply {
        self.env.count_ecall();
        self.logic.dispatch(&mut self.env, call)
    }

    /// Boundary-crossing and memory counters accumulated so far.
    pub fn counters(&self) -> EcallCounters {
        self.env.counters()
    }

    /// Resets the boundary counters (e.g. between benchmark phases).
    pub fn reset_counters(&mut self) {
        self.env.reset_counters();
    }

    /// Peak trusted-heap usage in bytes since creation (or last reset).
    pub fn trusted_heap_peak(&self) -> usize {
        self.env.heap_peak()
    }

    /// Trusted-heap bytes tracked right now — what the logic holds
    /// between ECALLs (caches, per-column state).
    pub fn trusted_heap_current(&self) -> usize {
        self.env.heap_current()
    }

    /// Resets the trusted-heap peak gauge.
    pub fn reset_heap_peak(&mut self) {
        self.env.reset_heap_peak();
    }

    /// ECALL: starts a remote-attestation round.
    ///
    /// The enclave generates an ephemeral X25519 key pair inside, embeds the
    /// public key in the report data, and has the platform produce a signed
    /// [`Quote`] over `(measurement, report_data)` — mirroring SGX's
    /// `sgx_create_report` + quoting-enclave flow.
    pub fn attest<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Quote {
        self.env.count_ecall();
        let secret = Key256::generate(rng);
        let public = x25519::public_key(&secret);
        self.dh_secret = Some(secret);
        self.platform.quote(self.measurement, public)
    }

    /// ECALL: completes provisioning of the database master key `SK_DB`.
    ///
    /// `peer_public` is the data owner's ephemeral X25519 public key and
    /// `sealed_key` the AES-GCM encryption of the 16-byte key under the
    /// derived session key (see [`channel`]).
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::NoAttestationRound`] if [`Enclave::attest`]
    /// was not called first, or [`EnclaveError::Crypto`] if decryption of
    /// the wrapped key fails.
    pub fn provision_key(
        &mut self,
        peer_public: &[u8; 32],
        sealed_key: &[u8],
    ) -> Result<(), EnclaveError> {
        self.env.count_ecall();
        let secret = self
            .dh_secret
            .take()
            .ok_or(EnclaveError::NoAttestationRound)?;
        let session = channel::session_key(&secret, peer_public, channel::Role::Enclave);
        let pae = encdbdb_crypto::Pae::new(&session);
        let key_bytes = pae.decrypt_bytes(sealed_key, channel::PROVISION_AAD)?;
        let key = Key128::from_slice(&key_bytes).map_err(EnclaveError::Crypto)?;
        self.env.provision_master_key(key);
        Ok(())
    }

    /// Whether a master key has been provisioned.
    pub fn is_provisioned(&self) -> bool {
        self.env.master_key().is_some()
    }

    /// Directly installs `SK_DB` without the attestation dance.
    ///
    /// This models the paper's *trusted-setup* variant (§4.2: "the DBaaS
    /// provider is assumed trusted for the initial setup"). Tests and
    /// benchmarks use it to skip the channel handshake.
    pub fn provision_key_direct(&mut self, key: Key128) {
        self.env.count_ecall();
        self.env.provision_master_key(key);
    }

    /// ECALL: seals `data` to this enclave's identity.
    ///
    /// Models `sgx_seal_data`: the sealing key is derived from the platform
    /// root secret and this enclave's measurement (see [`crate::sealing`]),
    /// so only an enclave with the same code identity on the same platform
    /// can unseal. Sealing needs no provisioned master key — a freshly
    /// started (not yet provisioned) enclave can seal and unseal, which is
    /// what makes crash recovery possible before the data owner re-attaches.
    pub fn seal_data<R: RngCore + ?Sized>(&mut self, rng: &mut R, data: &[u8]) -> Vec<u8> {
        self.env.count_ecall();
        sealing::seal(&self.platform, self.measurement, rng, data)
    }

    /// ECALL: unseals a blob produced by [`Enclave::seal_data`] on an
    /// enclave with the same identity.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::Crypto`] if the blob was sealed for a
    /// different enclave/platform or was tampered with.
    pub fn unseal_data(&mut self, blob: &[u8]) -> Result<Vec<u8>, EnclaveError> {
        self.env.count_ecall();
        sealing::unseal(&self.platform, self.measurement, blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Echo;
    impl EnclaveLogic for Echo {
        type Call<'a> = Vec<u8>;
        type Reply = Vec<u8>;
        fn code_identity(&self) -> &'static [u8] {
            b"echo-logic-v1"
        }
        fn dispatch(&mut self, env: &mut TrustedEnv, call: Vec<u8>) -> Vec<u8> {
            env.track_alloc(call.len());
            let reply = call.clone();
            env.track_free(call.len());
            reply
        }
    }

    #[test]
    fn ecalls_are_counted() {
        let mut e = Enclave::new(Echo);
        for _ in 0..5 {
            e.ecall(vec![1, 2, 3]);
        }
        assert_eq!(e.counters().ecalls, 5);
        e.reset_counters();
        assert_eq!(e.counters().ecalls, 0);
    }

    #[test]
    fn heap_peak_tracks_allocations() {
        let mut e = Enclave::new(Echo);
        e.ecall(vec![0u8; 1000]);
        assert!(e.trusted_heap_peak() >= 1000);
    }

    #[test]
    fn measurement_depends_on_code() {
        struct Other;
        impl EnclaveLogic for Other {
            type Call<'a> = ();
            type Reply = ();
            fn code_identity(&self) -> &'static [u8] {
                b"other-logic"
            }
            fn dispatch(&mut self, _: &mut TrustedEnv, _: ()) {}
        }
        let a = Enclave::new(Echo);
        let b = Enclave::new(Other);
        assert_ne!(a.measurement(), b.measurement());
    }

    #[test]
    fn full_provisioning_flow() {
        let mut rng = StdRng::seed_from_u64(11);
        let platform = SigningPlatform::generate(&mut rng);
        let service = platform.verification_service();
        let mut enclave = Enclave::on_platform(Echo, platform);

        // Data owner side.
        let quote = enclave.attest(&mut rng);
        let report = service
            .verify(&quote)
            .expect("quote must verify on the same platform");
        assert_eq!(report.measurement, Measurement::of(b"echo-logic-v1"));

        let skdb = Key128::from_bytes([0x42; 16]);
        let owner_secret = Key256::generate(&mut rng);
        let owner_public = x25519::public_key(&owner_secret);
        let session =
            channel::session_key(&owner_secret, &report.report_data, channel::Role::DataOwner);
        let pae = encdbdb_crypto::Pae::new(&session);
        let wrapped = pae
            .encrypt_with_rng(&mut rng, skdb.as_bytes(), channel::PROVISION_AAD)
            .into_bytes();

        assert!(!enclave.is_provisioned());
        enclave.provision_key(&owner_public, &wrapped).unwrap();
        assert!(enclave.is_provisioned());
    }

    #[test]
    fn provisioning_without_attestation_fails() {
        let mut e = Enclave::new(Echo);
        let err = e.provision_key(&[0u8; 32], &[0u8; 64]).unwrap_err();
        assert_eq!(err, EnclaveError::NoAttestationRound);
    }

    #[test]
    fn seal_data_roundtrips_across_instances_and_counts_ecalls() {
        let mut rng = StdRng::seed_from_u64(31);
        // Two separate enclave instances with the same code identity on the
        // default platform share a sealing key: what one seals, a freshly
        // started twin (e.g. after a server restart) unseals.
        let mut a = Enclave::new(Echo);
        let mut b = Enclave::new(Echo);
        let blob = a.seal_data(&mut rng, b"durable state");
        assert_eq!(b.unseal_data(&blob).unwrap(), b"durable state");
        assert_eq!(a.counters().ecalls, 1);
        assert_eq!(b.counters().ecalls, 1);
    }

    #[test]
    fn seal_data_rejected_by_other_identity() {
        struct Other;
        impl EnclaveLogic for Other {
            type Call<'a> = ();
            type Reply = ();
            fn code_identity(&self) -> &'static [u8] {
                b"other-logic"
            }
            fn dispatch(&mut self, _: &mut TrustedEnv, _: ()) {}
        }
        let mut rng = StdRng::seed_from_u64(32);
        let mut echo = Enclave::new(Echo);
        let mut other = Enclave::new(Other);
        let blob = echo.seal_data(&mut rng, b"secret");
        assert!(other.unseal_data(&blob).is_err());
        // Tampering is caught too.
        let mut flipped = echo.seal_data(&mut rng, b"secret");
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(echo.unseal_data(&flipped).is_err());
    }

    #[test]
    fn tampered_wrapped_key_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut enclave = Enclave::new(Echo);
        let quote = enclave.attest(&mut rng);
        let owner_secret = Key256::generate(&mut rng);
        let owner_public = x25519::public_key(&owner_secret);
        let session = channel::session_key(
            &owner_secret,
            &quote.report.report_data,
            channel::Role::DataOwner,
        );
        let pae = encdbdb_crypto::Pae::new(&session);
        let mut wrapped = pae
            .encrypt_with_rng(&mut rng, &[9u8; 16], channel::PROVISION_AAD)
            .into_bytes();
        wrapped[20] ^= 1;
        let err = enclave.provision_key(&owner_public, &wrapped).unwrap_err();
        assert!(matches!(err, EnclaveError::Crypto(_)));
    }
}
