//! A compact, hand-rolled binary codec.
//!
//! LWFS requests must be *small* — the server-directed data-movement design
//! (§3.2) depends on control messages being a few hundred bytes so that an
//! I/O node can absorb tens of thousands of near-simultaneous requests. The
//! codec is therefore a straightforward little-endian TLV-free layout:
//! fixed-width integers, length-prefixed byte strings, and one discriminant
//! byte per enum. No self-description, no padding.
//!
//! Every encodable type implements [`Encode`] and [`Decode`]; the encoded
//! length doubles as the *wire size* used by the network model for
//! bandwidth accounting.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{Error, Result};

/// Serialize into a byte buffer.
///
/// Every type states its [`encoded_len`](Encode::encoded_len) beside its
/// [`encode`](Encode::encode), so a buffer is sized once, before the
/// first byte is written, and never grows by doubling.
pub trait Encode {
    fn encode(&self, buf: &mut BytesMut);

    /// The exact number of bytes [`Encode::encode`] will append.
    fn encoded_len(&self) -> usize;

    /// Encode into a fresh buffer of exactly the encoded size.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Deserialize from a byte buffer.
pub trait Decode: Sized {
    fn decode(buf: &mut impl Buf) -> Result<Self>;

    /// Decode from a complete message, requiring all bytes be consumed.
    fn from_bytes(mut bytes: Bytes) -> Result<Self> {
        let v = Self::decode(&mut bytes)?;
        if bytes.has_remaining() {
            return Err(Error::Malformed(format!(
                "{} trailing bytes after message",
                bytes.remaining()
            )));
        }
        Ok(v)
    }
}

/// Fail with a uniform error when the buffer is shorter than `need`.
pub fn need(buf: &impl Buf, need: usize, what: &str) -> Result<()> {
    if buf.remaining() < need {
        Err(Error::Malformed(format!(
            "truncated {what}: need {need} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

macro_rules! impl_codec_int {
    ($($t:ty => $put:ident, $get:ident, $n:expr);* $(;)?) => {
        $(
            impl Encode for $t {
                fn encode(&self, buf: &mut BytesMut) {
                    buf.$put(*self);
                }
                fn encoded_len(&self) -> usize { $n }
            }
            impl Decode for $t {
                fn decode(buf: &mut impl Buf) -> Result<Self> {
                    need(buf, $n, stringify!($t))?;
                    Ok(buf.$get())
                }
            }
        )*
    };
}

impl_codec_int! {
    u8  => put_u8, get_u8, 1;
    u16 => put_u16_le, get_u16_le, 2;
    u32 => put_u32_le, get_u32_le, 4;
    u64 => put_u64_le, get_u64_le, 8;
    i64 => put_i64_le, get_i64_le, 8;
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Malformed(format!("invalid bool byte {b}"))),
        }
    }
}

/// Byte strings are length-prefixed with u32. A borrowed `[u8]` encodes
/// exactly as the [`Bytes`] it would be copied into, so a record can be
/// framed straight from the buffer that holds its payload.
impl Encode for [u8] {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Encode for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_ref().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_ref().encoded_len()
    }
}

impl Decode for Bytes {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        need(buf, len, "byte string")?;
        Ok(buf.copy_to_bytes(len))
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Decode for String {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let raw = Vec::<u8>::decode(buf)?;
        String::from_utf8(raw).map_err(|e| Error::Malformed(format!("invalid utf-8: {e}")))
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(self);
    }
    fn encoded_len(&self) -> usize {
        N
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        need(buf, N, "fixed array")?;
        let mut out = [0u8; N];
        buf.copy_to_slice(&mut out);
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            b => Err(Error::Malformed(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let len = u32::decode(buf)? as usize;
        // Guard against hostile length prefixes: never pre-reserve more
        // than the remaining bytes could possibly describe.
        let cap = len.min(buf.remaining());
        let mut v = Vec::with_capacity(cap);
        for _ in 0..len {
            v.push(T::decode(buf)?);
        }
        Ok(v)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, buf: &mut BytesMut) {
        (*self).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        (*self).encoded_len()
    }
}

/// Implement `Encode`/`Decode` for a struct by encoding each named field in
/// declaration order.
#[macro_export]
macro_rules! impl_codec_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                $( $crate::codec::Encode::encode(&self.$field, buf); )+
            }
            fn encoded_len(&self) -> usize {
                0 $( + $crate::codec::Encode::encoded_len(&self.$field) )+
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(buf: &mut impl ::bytes::Buf) -> $crate::error::Result<Self> {
                Ok(Self { $( $field: $crate::codec::Decode::decode(buf)?, )+ })
            }
        }
    };
}

/// Implement `Encode`/`Decode` for a newtype over a single encodable value.
#[macro_export]
macro_rules! impl_codec_newtype {
    ($($ty:ty),+ $(,)?) => {
        $(
            impl $crate::codec::Encode for $ty {
                fn encode(&self, buf: &mut ::bytes::BytesMut) {
                    $crate::codec::Encode::encode(&self.0, buf);
                }
                fn encoded_len(&self) -> usize {
                    $crate::codec::Encode::encoded_len(&self.0)
                }
            }
            impl $crate::codec::Decode for $ty {
                fn decode(buf: &mut impl ::bytes::Buf) -> $crate::error::Result<Self> {
                    Ok(Self($crate::codec::Decode::decode(buf)?))
                }
            }
        )+
    };
}

/// Implement `Encode`/`Decode` for an enum from one table: each variant's
/// discriminant byte and field list are stated once and both directions
/// are generated from it, so a tag cannot be encoded one way and decoded
/// another. Variants may be unit, `{ named, fields }` or `(tuple)`; fields
/// go on the wire in the order listed. `TAGS` lists the discriminants in
/// table order.
#[macro_export]
macro_rules! impl_codec_enum {
    ($ty:ident {
        $( $tag:literal => $variant:ident
            $( { $($field:ident),* $(,)? } )?
            $( ( $($elem:ident),* ) )?
        ),+ $(,)?
    }) => {
        impl $ty {
            /// Every discriminant byte of this enum's wire encoding.
            pub const TAGS: &'static [u8] = &[$($tag),+];

            /// The discriminant byte this value encodes with.
            #[allow(unused_variables)]
            pub fn tag(&self) -> u8 {
                match self {
                    $( $ty::$variant $( { $($field),* } )? $( ( $($elem),* ) )? => $tag, )+
                }
            }
        }
        impl $crate::codec::Encode for $ty {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $(
                        $ty::$variant $( { $($field),* } )? $( ( $($elem),* ) )? => {
                            ::bytes::BufMut::put_u8(buf, $tag);
                            $( $( $crate::codec::Encode::encode($field, buf); )* )?
                            $( $( $crate::codec::Encode::encode($elem, buf); )* )?
                        }
                    )+
                }
            }
            fn encoded_len(&self) -> usize {
                match self {
                    $(
                        $ty::$variant $( { $($field),* } )? $( ( $($elem),* ) )? => {
                            1 $( $( + $crate::codec::Encode::encoded_len($field) )* )?
                              $( $( + $crate::codec::Encode::encoded_len($elem) )* )?
                        }
                    )+
                }
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(buf: &mut impl ::bytes::Buf) -> $crate::error::Result<Self> {
                let tag: u8 = $crate::codec::Decode::decode(buf)?;
                ::core::result::Result::Ok(match tag {
                    $(
                        $tag => $ty::$variant
                            $( { $($field: $crate::codec::Decode::decode(buf)?),* } )?
                            $( ( $({
                                // One decode per listed element; the name
                                // only matters on the encode side.
                                let $elem = $crate::codec::Decode::decode(buf)?;
                                $elem
                            }),* ) )?,
                    )+
                    t => {
                        return ::core::result::Result::Err($crate::error::Error::Malformed(
                            format!("unknown {} tag {t}", stringify!($ty)),
                        ))
                    }
                })
            }
        }
    };
}

// Codec impls for the identifier types.
use crate::ids::{ContainerId, Lifetime, NodeId, ObjId, OpNum, Pid, PrincipalId, ProcessId, TxnId};
use crate::ops::OpMask;
use crate::security::{Capability, CapabilityBody, Credential, CredentialBody, Signature};

impl_codec_newtype!(NodeId, Pid, ContainerId, ObjId, PrincipalId, TxnId, OpNum, Signature);
impl_codec_struct!(ProcessId { nid, pid });
impl_codec_struct!(Lifetime { not_before, not_after });
impl_codec_struct!(CredentialBody { principal, issuer_epoch, lifetime, serial });
impl_codec_struct!(Credential { body, sig });
impl_codec_struct!(CapabilityBody { container, ops, principal, issuer_epoch, lifetime, serial });
impl_codec_struct!(Capability { body, sig });

impl Encode for OpMask {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.bits());
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for OpMask {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(OpMask::from_bits_truncate(u32::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ContainerId;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let only = v.to_bytes().try_into_mut().expect("to_bytes keeps no second handle");
        assert_eq!(only.capacity(), only.len(), "to_bytes allocated more than once");
        let back = T::from_bytes(bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("checkpoint/000123"));
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u64));
        roundtrip(vec![ContainerId(1), ContainerId(2)]);
        roundtrip((ContainerId(5), 17u64));
        roundtrip(Bytes::from_static(b"bulk"));
    }

    #[test]
    fn security_types_roundtrip() {
        let cap = Capability {
            body: CapabilityBody {
                container: ContainerId(3),
                ops: OpMask::READ | OpMask::WRITE,
                principal: PrincipalId(12),
                issuer_epoch: 4,
                lifetime: Lifetime::starting_at(10, 500),
                serial: 77,
            },
            sig: Signature([7u8; 16]),
        };
        roundtrip(cap);
        let cred = Credential {
            body: CredentialBody {
                principal: PrincipalId(12),
                issuer_epoch: 2,
                lifetime: Lifetime::UNBOUNDED,
                serial: 5,
            },
            sig: Signature([9u8; 16]),
        };
        roundtrip(cred);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = 0xDEAD_BEEF_u32.to_bytes();
        let mut short = bytes.slice(0..2);
        assert!(u32::decode(&mut short).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = BytesMut::new();
        7u32.encode(&mut buf);
        buf.put_u8(0xFF);
        assert!(matches!(u32::from_bytes(buf.freeze()), Err(Error::Malformed(_))));
    }

    #[test]
    fn invalid_bool_rejected() {
        let b = Bytes::from_static(&[2]);
        assert!(bool::from_bytes(b).is_err());
    }

    #[test]
    fn hostile_vec_length_does_not_overallocate() {
        // Length prefix claims 1 GiB of u64s but only 4 bytes follow.
        let mut buf = BytesMut::new();
        buf.put_u32_le(128 * 1024 * 1024);
        buf.put_u32_le(7);
        assert!(Vec::<u64>::from_bytes(buf.freeze()).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(String::from_bytes(buf.freeze()).is_err());
    }

    #[test]
    fn opmask_truncates_unknown_bits_on_decode() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        let m = OpMask::from_bytes(buf.freeze()).unwrap();
        assert_eq!(m, OpMask::ALL);
    }

    proptest::proptest! {
        #[test]
        fn prop_bytes_roundtrip(data: Vec<u8>) {
            let b = Bytes::from(data.clone());
            let back = Bytes::from_bytes(b.to_bytes()).unwrap();
            proptest::prop_assert_eq!(back.as_ref(), data.as_slice());
        }

        #[test]
        fn prop_u64_roundtrip(v: u64) {
            let back = u64::from_bytes(v.to_bytes()).unwrap();
            proptest::prop_assert_eq!(back, v);
        }

        #[test]
        fn prop_string_roundtrip(s in "\\PC*") {
            let back = String::from_bytes(s.clone().to_bytes()).unwrap();
            proptest::prop_assert_eq!(back, s);
        }

        #[test]
        fn prop_decode_random_junk_never_panics(data: Vec<u8>) {
            // Decoding arbitrary bytes as a capability either succeeds or
            // errors; it must never panic or loop.
            let _ = Capability::from_bytes(Bytes::from(data));
        }

        #[test]
        fn prop_capability_roundtrip(
            container: u64,
            ops_bits: u32,
            principal: u64,
            epoch: u64,
            not_before: u64,
            not_after: u64,
            serial: u64,
            sig: [u8; 16],
        ) {
            let cap = Capability {
                body: CapabilityBody {
                    container: ContainerId(container),
                    ops: OpMask::from_bits_truncate(ops_bits),
                    principal: PrincipalId(principal),
                    issuer_epoch: epoch,
                    lifetime: Lifetime { not_before, not_after },
                    serial,
                },
                sig: Signature(sig),
            };
            let back = Capability::from_bytes(cap.to_bytes()).unwrap();
            proptest::prop_assert_eq!(back, cap);
        }

        #[test]
        fn prop_lifetime_roundtrip(not_before: u64, not_after: u64) {
            let lt = Lifetime { not_before, not_after };
            let back = Lifetime::from_bytes(lt.to_bytes()).unwrap();
            proptest::prop_assert_eq!(back, lt);
        }
    }
}
