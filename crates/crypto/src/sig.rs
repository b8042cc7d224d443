//! Message signatures: single and double (co-signed) forms.
//!
//! The fail-signal protocol (paper §2.1) requires that:
//!
//! * every output of a replica is **single-signed** by the local Compare
//!   process before being forwarded to the remote Compare for matching;
//! * an output of the FS process as a whole is valid only when it bears the
//!   authentic signatures of *both* Compare processes — a **double-signed**
//!   message;
//! * the fail-signal itself is a pre-agreed message, single-signed by each
//!   Compare at start-up and counter-signed by the other Compare when it is
//!   emitted.
//!
//! This module provides those building blocks generically over any byte
//! payload; the envelope types live in the `failsignal` crate.

use serde::{Deserialize, Serialize};

use fs_common::SignatureError;

use crate::hmac::{HmacKey, MacSchedule};
use crate::keys::{KeyDirectory, SignerId, SigningKey};
use crate::sha256::{ct_eq, Digest};

/// A signature by a single signer over a byte string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Who produced this signature.
    pub signer: SignerId,
    /// The authenticator tag.
    pub tag: Digest,
}

impl Signature {
    /// Signs `message` with `key`, resuming from the key's precomputed HMAC
    /// state (the RFC 2104 key schedule is never re-expanded per message).
    pub fn sign(key: &SigningKey, message: &[u8]) -> Signature {
        Signature {
            signer: key.signer,
            tag: key.hmac().mac(message),
        }
    }

    /// Verifies this signature over `message` against the key directory.
    ///
    /// # Errors
    ///
    /// * [`SignatureError::UnknownSigner`] — the claimed signer is not in the
    ///   directory.
    /// * [`SignatureError::Invalid`] — the tag does not verify.
    pub fn verify(&self, directory: &KeyDirectory, message: &[u8]) -> Result<(), SignatureError> {
        let key = directory.lookup(self.signer)?;
        if key.hmac().verify(message, self.tag.as_bytes()) {
            Ok(())
        } else {
            Err(SignatureError::Invalid)
        }
    }

    /// Verifies every signature in `sigs` over the same `message` — the
    /// authenticator-vector shape: one message, *n* MACs — sharing the inner
    /// message schedule across the batch (and, without the SHA extensions,
    /// running the per-key rounds lane-parallel).
    ///
    /// All-or-nothing contract: returns `Ok(())` only when every signature
    /// verifies, and otherwise exactly the error a sequential
    /// [`Signature::verify`] loop would have produced first.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_batch(
        sigs: &[&Signature],
        directory: &KeyDirectory,
        message: &[u8],
    ) -> Result<(), SignatureError> {
        // A lookup failure stops resolution (the sequential loop never looks
        // past it), but the signatures before it are still verified first:
        // an Invalid among them takes precedence over the lookup error.
        let mut keys: Vec<&HmacKey> = Vec::with_capacity(sigs.len());
        let mut lookup_err = None;
        for sig in sigs {
            match directory.lookup(sig.signer) {
                Err(e) => {
                    lookup_err = Some(e);
                    break;
                }
                Ok(key) => keys.push(key.hmac()),
            }
        }
        let expected = HmacKey::mac_batch(&keys, message);
        for (sig, tag) in sigs.iter().zip(&expected) {
            if !ct_eq(tag.as_bytes(), sig.tag.as_bytes()) {
                return Err(SignatureError::Invalid);
            }
        }
        match lookup_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Another name for [`Signature::verify_batch`], which caches nothing:
    /// every call recomputes all its MACs.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_batch_uncached(
        sigs: &[&Signature],
        directory: &KeyDirectory,
        message: &[u8],
    ) -> Result<(), SignatureError> {
        Self::verify_batch(sigs, directory, message)
    }

    /// Counter-signs `first`, a signature over `content_bytes`, with `key`.
    ///
    /// The counter-signature covers the content bytes *and* the first
    /// signature (see `cosign_suffix`), so the pair of signatures cannot be
    /// mixed and matched across messages.  The suffix is hashed straight
    /// after the content: the concatenation is never materialised.
    pub fn counter_sign(key: &SigningKey, content_bytes: &[u8], first: &Signature) -> Signature {
        Signature {
            signer: key.signer,
            tag: MacSchedule::new(content_bytes).mac_with_suffix(key.hmac(), &cosign_suffix(first)),
        }
    }
}

/// The fixed 36-byte suffix the second (counter-) signature covers in
/// addition to the content bytes: the first signer's id (little-endian) and
/// the first signature's tag.
fn cosign_suffix(first: &Signature) -> [u8; 36] {
    let mut suffix = [0u8; 36];
    suffix[..4].copy_from_slice(&(first.signer.0).0.to_le_bytes());
    suffix[4..].copy_from_slice(first.tag.as_bytes());
    suffix
}

/// Verifies a co-signed pair of signatures over `content_bytes` — the first
/// over the content itself, the second over the content plus the
/// `cosign_suffix` naming the first — sharing the content's message
/// schedule between the two MAC computations (all full content blocks are
/// common to both).
///
/// Verification order and error precedence are identical to verifying the
/// two signatures sequentially with [`Signature::verify`]: first signer
/// lookup, first signature, second signer lookup, second signature.
///
/// # Errors
///
/// See [`Signature::verify`].
pub fn verify_cosign_pair(
    directory: &KeyDirectory,
    content_bytes: &[u8],
    first: &Signature,
    second: &Signature,
) -> Result<(), SignatureError> {
    verify_cosign_pair_with(directory, &MacSchedule::new(content_bytes), first, second)
}

/// [`verify_cosign_pair`] over a caller-held schedule, so a batch of pairs
/// over the same content shares one schedule (see
/// [`DoubleSigned::verify_batch`]).
fn verify_cosign_pair_with(
    directory: &KeyDirectory,
    schedule: &MacSchedule<'_>,
    first: &Signature,
    second: &Signature,
) -> Result<(), SignatureError> {
    let key1 = directory.lookup(first.signer)?;
    if !ct_eq(schedule.mac(key1.hmac()).as_bytes(), first.tag.as_bytes()) {
        return Err(SignatureError::Invalid);
    }
    let key2 = directory.lookup(second.signer)?;
    let suffix = cosign_suffix(first);
    if !ct_eq(
        schedule.mac_with_suffix(key2.hmac(), &suffix).as_bytes(),
        second.tag.as_bytes(),
    ) {
        return Err(SignatureError::Invalid);
    }
    Ok(())
}

/// A message carrying exactly one signature — the form exchanged *between*
/// the two Compare processes of a pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SingleSigned<T> {
    /// The signed content.
    pub content: T,
    /// The signature over the canonical encoding of the content.
    pub signature: Signature,
}

impl<T> SingleSigned<T> {
    /// Signs `content`, whose canonical bytes are `content_bytes`, with `key`.
    ///
    /// The caller supplies the canonical encoding explicitly so that the
    /// signing code never depends on a particular serialisation framework.
    pub fn new(content: T, content_bytes: &[u8], key: &SigningKey) -> Self {
        Self {
            signature: Signature::sign(key, content_bytes),
            content,
        }
    }

    /// Verifies the signature over `content_bytes`.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify(
        &self,
        directory: &KeyDirectory,
        content_bytes: &[u8],
    ) -> Result<(), SignatureError> {
        self.signature.verify(directory, content_bytes)
    }

    /// Counter-signs this message with a second key, producing the
    /// double-signed form that destinations accept as the FS process output.
    pub fn counter_sign(self, content_bytes: &[u8], key: &SigningKey) -> DoubleSigned<T> {
        let second = Signature::counter_sign(key, content_bytes, &self.signature);
        DoubleSigned {
            content: self.content,
            first: self.signature,
            second,
        }
    }
}

/// A message carrying the signatures of both wrappers of a fail-signal pair —
/// the only form a destination treats as a valid output of the FS process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DoubleSigned<T> {
    /// The signed content.
    pub content: T,
    /// The first signature (by the wrapper that produced the output).
    pub first: Signature,
    /// The second signature (by the wrapper that successfully compared it).
    pub second: Signature,
}

impl<T> DoubleSigned<T> {
    /// Verifies that the message is a valid output of the FS pair whose
    /// wrappers are `expected_pair`.
    ///
    /// The check enforces everything §2.1 requires of a valid FS output:
    ///
    /// 1. both signatures verify under the directory,
    /// 2. the two signers are distinct, and
    /// 3. both signers belong to `expected_pair` (order does not matter —
    ///    the paper notes the two valid copies carry the signatures in
    ///    opposite orders).
    ///
    /// # Errors
    ///
    /// * [`SignatureError::DuplicateSigner`] — both signatures from the same
    ///   wrapper.
    /// * [`SignatureError::MissingCoSignature`] — a signer outside
    ///   `expected_pair` signed the message.
    /// * [`SignatureError::Invalid`] / [`SignatureError::UnknownSigner`] — a
    ///   signature failed to verify.
    pub fn verify(
        &self,
        directory: &KeyDirectory,
        content_bytes: &[u8],
        expected_pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        self.check_pair(expected_pair)?;
        verify_cosign_pair(directory, content_bytes, &self.first, &self.second)
    }

    /// Verifies every double-signed message in `items` over the same
    /// `content_bytes` against the same expected pair, sharing the content's
    /// message schedule across the whole batch (each item adds only its two
    /// per-key finalizations).
    ///
    /// All-or-nothing contract: `Ok(())` only when every item verifies,
    /// otherwise the error a sequential [`DoubleSigned::verify`] loop would
    /// have produced first.
    ///
    /// # Errors
    ///
    /// See [`DoubleSigned::verify`].
    pub fn verify_batch(
        items: &[&DoubleSigned<T>],
        directory: &KeyDirectory,
        content_bytes: &[u8],
        expected_pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        let schedule = MacSchedule::new(content_bytes);
        for item in items {
            item.check_pair(expected_pair)?;
            verify_cosign_pair_with(directory, &schedule, &item.first, &item.second)?;
        }
        Ok(())
    }

    /// The structural half of [`DoubleSigned::verify`]: distinct signers,
    /// both members of `expected_pair` (in either order).
    fn check_pair(&self, expected_pair: (SignerId, SignerId)) -> Result<(), SignatureError> {
        if self.first.signer == self.second.signer {
            return Err(SignatureError::DuplicateSigner);
        }
        let pair_ok = (self.first.signer == expected_pair.0
            && self.second.signer == expected_pair.1)
            || (self.first.signer == expected_pair.1 && self.second.signer == expected_pair.0);
        if !pair_ok {
            return Err(SignatureError::MissingCoSignature);
        }
        Ok(())
    }

    /// Returns the pair of signers, first then second.
    pub fn signers(&self) -> (SignerId, SignerId) {
        (self.first.signer, self.second.signer)
    }

    /// Discards the signatures and returns the content (what the interceptor
    /// does before handing a delivery up to the invocation layer).
    pub fn into_content(self) -> T {
        self.content
    }

    /// Maps the content, keeping the signatures.
    ///
    /// Intended for bookkeeping (e.g. attaching receive timestamps); note
    /// that mapping the content does *not* re-sign it, so the result only
    /// verifies against the original content bytes.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> DoubleSigned<U> {
        DoubleSigned {
            content: f(self.content),
            first: self.first,
            second: self.second,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::id::ProcessId;
    use fs_common::rng::DetRng;

    /// The bytes a counter-signature covers, materialised.
    fn co_sign_bytes(content_bytes: &[u8], first: &Signature) -> Vec<u8> {
        let mut buf = content_bytes.to_vec();
        buf.extend_from_slice(&cosign_suffix(first));
        buf
    }

    fn setup() -> (
        SigningKey,
        SigningKey,
        SigningKey,
        std::sync::Arc<KeyDirectory>,
    ) {
        let mut rng = DetRng::new(0xc0ffee);
        let procs = vec![ProcessId(1), ProcessId(2), ProcessId(3)];
        let (mut keys, dir) = crate::keys::provision(procs, &mut rng);
        let a = keys.remove(&SignerId(ProcessId(1))).unwrap();
        let b = keys.remove(&SignerId(ProcessId(2))).unwrap();
        let c = keys.remove(&SignerId(ProcessId(3))).unwrap();
        (a, b, c, dir)
    }

    #[test]
    fn single_signature_round_trip() {
        let (a, _, _, dir) = setup();
        let msg = b"ordered message 42";
        let sig = Signature::sign(&a, msg);
        assert!(sig.verify(&dir, msg).is_ok());
        assert_eq!(
            sig.verify(&dir, b"other").unwrap_err(),
            SignatureError::Invalid
        );
    }

    #[test]
    fn unknown_signer_is_rejected() {
        let (a, _, _, _) = setup();
        let empty = KeyDirectory::new();
        let sig = Signature::sign(&a, b"m");
        assert_eq!(
            sig.verify(&empty, b"m").unwrap_err(),
            SignatureError::UnknownSigner
        );
    }

    #[test]
    fn single_signed_envelope() {
        let (a, _, _, dir) = setup();
        let content = "output-7".to_string();
        let bytes = content.as_bytes().to_vec();
        let signed = SingleSigned::new(content.clone(), &bytes, &a);
        assert!(signed.verify(&dir, &bytes).is_ok());
        assert!(signed.verify(&dir, b"tampered").is_err());
        assert_eq!(signed.content, content);
    }

    #[test]
    fn double_signed_happy_path() {
        let (a, b, _, dir) = setup();
        let bytes = b"total-order decision".to_vec();
        let single = SingleSigned::new((), &bytes, &a);
        let double = single.counter_sign(&bytes, &b);
        let pair = (a.signer, b.signer);
        assert!(double.verify(&dir, &bytes, pair).is_ok());
        // Order of the expected pair must not matter.
        assert!(double.verify(&dir, &bytes, (b.signer, a.signer)).is_ok());
        assert_eq!(double.signers(), (a.signer, b.signer));
    }

    #[test]
    fn double_signed_rejects_duplicate_signer() {
        let (a, _, _, dir) = setup();
        let bytes = b"x".to_vec();
        let double = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &a);
        assert_eq!(
            double
                .verify(&dir, &bytes, (a.signer, a.signer))
                .unwrap_err(),
            SignatureError::DuplicateSigner
        );
    }

    #[test]
    fn double_signed_rejects_outsider() {
        let (a, b, c, dir) = setup();
        let bytes = b"x".to_vec();
        // c co-signs instead of b: destinations expecting pair (a, b) must reject.
        let double = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &c);
        assert_eq!(
            double
                .verify(&dir, &bytes, (a.signer, b.signer))
                .unwrap_err(),
            SignatureError::MissingCoSignature
        );
    }

    #[test]
    fn double_signed_rejects_tampered_content() {
        let (a, b, _, dir) = setup();
        let bytes = b"original".to_vec();
        let double = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &b);
        assert!(double
            .verify(&dir, b"forged", (a.signer, b.signer))
            .is_err());
    }

    #[test]
    fn double_signed_rejects_mixed_and_matched_signatures() {
        let (a, b, _, dir) = setup();
        let bytes1 = b"message one".to_vec();
        let bytes2 = b"message two".to_vec();
        let d1 = SingleSigned::new((), &bytes1, &a).counter_sign(&bytes1, &b);
        let d2 = SingleSigned::new((), &bytes2, &a).counter_sign(&bytes2, &b);
        // Splice the co-signature of message two onto message one.
        let spliced = DoubleSigned {
            content: (),
            first: d1.first.clone(),
            second: d2.second.clone(),
        };
        assert!(spliced.verify(&dir, &bytes1, (a.signer, b.signer)).is_err());
    }

    #[test]
    fn forged_signature_without_key_fails() {
        let (a, b, _, dir) = setup();
        let bytes = b"victim".to_vec();
        // An adversary without a's key guesses a tag.
        let forged = Signature {
            signer: a.signer,
            tag: crate::sha256::Sha256::digest(b"guess"),
        };
        assert_eq!(
            forged.verify(&dir, &bytes).unwrap_err(),
            SignatureError::Invalid
        );
        // And cannot make a convincing double-signed message either.
        let fake = DoubleSigned {
            content: (),
            first: forged,
            second: Signature::sign(&b, &bytes),
        };
        assert!(fake.verify(&dir, &bytes, (a.signer, b.signer)).is_err());
    }

    #[test]
    fn verify_batch_matches_sequential_verdicts() {
        let (a, b, c, dir) = setup();
        let msg = b"authenticator vector message".to_vec();
        let sigs: Vec<Signature> = [&a, &b, &c]
            .iter()
            .map(|k| Signature::sign(k, &msg))
            .collect();
        let refs: Vec<&Signature> = sigs.iter().collect();
        assert!(Signature::verify_batch(&refs, &dir, &msg).is_ok());
        assert!(Signature::verify_batch_uncached(&refs, &dir, &msg).is_ok());

        // A tampered tag anywhere fails the whole batch with Invalid.
        let mut bad = sigs.clone();
        bad[1].tag = crate::sha256::Sha256::digest(b"forged");
        let bad_refs: Vec<&Signature> = bad.iter().collect();
        assert_eq!(
            Signature::verify_batch(&bad_refs, &dir, &msg).unwrap_err(),
            SignatureError::Invalid
        );
        assert_eq!(
            Signature::verify_batch_uncached(&bad_refs, &dir, &msg).unwrap_err(),
            SignatureError::Invalid
        );

        // Lower-indexed Invalid outranks a later unknown signer, exactly as
        // the sequential loop would report.
        let mut mixed = bad.clone();
        mixed[2].signer = SignerId(ProcessId(99));
        let mixed_refs: Vec<&Signature> = mixed.iter().collect();
        assert_eq!(
            Signature::verify_batch(&mixed_refs, &dir, &msg).unwrap_err(),
            SignatureError::Invalid
        );

        // With every earlier signature valid, the unknown signer surfaces.
        let mut unknown = sigs.clone();
        unknown[2].signer = SignerId(ProcessId(99));
        let unknown_refs: Vec<&Signature> = unknown.iter().collect();
        assert_eq!(
            Signature::verify_batch(&unknown_refs, &dir, &msg).unwrap_err(),
            SignatureError::UnknownSigner
        );
        assert_eq!(
            Signature::verify_batch_uncached(&unknown_refs, &dir, &msg).unwrap_err(),
            SignatureError::UnknownSigner
        );
    }

    #[test]
    fn verify_batch_spans_many_keys() {
        // Enough signers to exercise the 8-lane + 4-lane + remainder split
        // below the signature layer.
        let mut rng = DetRng::new(7);
        let procs: Vec<ProcessId> = (0..13).map(ProcessId).collect();
        let (keys, dir) = crate::keys::provision(procs.clone(), &mut rng);
        let msg: Vec<u8> = (0..1500u32).map(|x| (x % 251) as u8).collect();
        let sigs: Vec<Signature> = procs
            .iter()
            .map(|p| Signature::sign(&keys[&SignerId(*p)], &msg))
            .collect();
        let refs: Vec<&Signature> = sigs.iter().collect();
        assert!(Signature::verify_batch(&refs, &dir, &msg).is_ok());
    }

    #[test]
    fn cosign_pair_verify_matches_plain_verify() {
        let (a, b, _, dir) = setup();
        let bytes: Vec<u8> = (0..300u16).map(|x| (x % 251) as u8).collect();
        let double = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &b);
        assert!(verify_cosign_pair(&dir, &bytes, &double.first, &double.second).is_ok());
        // The shared-schedule path agrees with the sequential checks.
        assert!(double.first.verify(&dir, &bytes).is_ok());
        assert!(double
            .second
            .verify(&dir, &co_sign_bytes(&bytes, &double.first))
            .is_ok());
        // Tampering with either signature is caught.
        for tamper_first in [true, false] {
            let mut bad = double.clone();
            let target = if tamper_first {
                &mut bad.first
            } else {
                &mut bad.second
            };
            target.tag = crate::sha256::Sha256::digest(b"forged");
            assert_eq!(
                verify_cosign_pair(&dir, &bytes, &bad.first, &bad.second).unwrap_err(),
                SignatureError::Invalid
            );
        }
    }

    #[test]
    fn double_signed_verify_batch() {
        let (a, b, _, dir) = setup();
        let bytes = b"one frame, many authenticator pairs".to_vec();
        let pair = (a.signer, b.signer);
        // Two distinct valid items over the same content (opposite signing
        // orders, as the paper notes the two valid copies carry).
        let d1 = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &b);
        let d2 = SingleSigned::new((), &bytes, &b).counter_sign(&bytes, &a);
        assert!(DoubleSigned::verify_batch(&[&d1, &d2], &dir, &bytes, pair).is_ok());
        let mut bad = d2.clone();
        bad.second.tag = crate::sha256::Sha256::digest(b"forged");
        assert_eq!(
            DoubleSigned::verify_batch(&[&d1, &bad], &dir, &bytes, pair).unwrap_err(),
            SignatureError::Invalid
        );
        let dup = DoubleSigned {
            content: (),
            first: d1.first.clone(),
            second: d1.first.clone(),
        };
        assert_eq!(
            DoubleSigned::verify_batch(&[&dup, &d1], &dir, &bytes, pair).unwrap_err(),
            SignatureError::DuplicateSigner
        );
    }

    #[test]
    fn map_keeps_signatures() {
        let (a, b, _, _) = setup();
        let bytes = b"content".to_vec();
        let double = SingleSigned::new(5u32, &bytes, &a).counter_sign(&bytes, &b);
        let mapped = double.clone().map(|v| v as u64 + 1);
        assert_eq!(mapped.content, 6u64);
        assert_eq!(mapped.first, double.first);
        assert_eq!(mapped.second, double.second);
        assert_eq!(double.into_content(), 5u32);
    }
}
