//! The field codec: how each wire type is written and read, once.
//!
//! Every message and record in [`crate::table`] is a sequence of these
//! fields in wire order. Encoding is infallible and keeps [`Payload`]
//! bytes as shared [`FrameBuf`] segments (zero-copy). Decoding is
//! bounds-checked through [`WireReader`]: arbitrary input produces
//! [`NetError::BadFrame`], never a panic.

use ring_net::{FrameBuf, NetError, Payload, WireReader};

/// Pre-allocation cap for decoded collections: trust the bytes, not the
/// count field. A corrupt count fails on the missing bytes before it can
/// reserve a giant `Vec`.
const MAX_PREALLOC: usize = 1024;

/// A `BadFrame` for a byte that names no known case of `what`.
pub(crate) fn unknown(what: &str, value: u8) -> NetError {
    NetError::BadFrame(format!("unknown {what} {value}"))
}

/// One wire type: its encoding and its decoding.
pub(crate) trait Field: Sized {
    /// Appends `self` to `out`.
    fn put(&self, out: &mut FrameBuf);

    /// Reads one `Self` from `r`.
    fn get(r: &mut WireReader<'_>) -> Result<Self, NetError>;
}

impl Field for u8 {
    fn put(&self, out: &mut FrameBuf) {
        out.put_u8(*self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<u8, NetError> {
        r.u8()
    }
}

impl Field for u32 {
    fn put(&self, out: &mut FrameBuf) {
        out.put_u32(*self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<u32, NetError> {
        r.u32()
    }
}

impl Field for u64 {
    fn put(&self, out: &mut FrameBuf) {
        out.put_u64(*self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<u64, NetError> {
        r.u64()
    }
}

/// `usize` travels as `u64`.
impl Field for usize {
    fn put(&self, out: &mut FrameBuf) {
        out.put_u64(*self as u64);
    }

    fn get(r: &mut WireReader<'_>) -> Result<usize, NetError> {
        Ok(r.u64()? as usize)
    }
}

/// One byte, `0` or `1`; any other value is refused.
impl Field for bool {
    fn put(&self, out: &mut FrameBuf) {
        out.put_u8(u8::from(*self));
    }

    fn get(r: &mut WireReader<'_>) -> Result<bool, NetError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(unknown("bool byte", b)),
        }
    }
}

/// A `u32` length, then the bytes as a shared segment.
impl Field for Payload {
    fn put(&self, out: &mut FrameBuf) {
        out.put_u32(self.len() as u32);
        out.put_payload(self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Payload, NetError> {
        let n = r.u32()? as usize;
        Ok(Payload::from(r.bytes(n)?.to_vec()))
    }
}

/// A `u32` length, then UTF-8 bytes.
impl Field for String {
    fn put(&self, out: &mut FrameBuf) {
        out.put_u32(self.len() as u32);
        out.put_bytes(self.as_bytes());
    }

    fn get(r: &mut WireReader<'_>) -> Result<String, NetError> {
        let n = r.u32()? as usize;
        String::from_utf8(r.bytes(n)?.to_vec())
            .map_err(|_| NetError::BadFrame("non-UTF-8 string".into()))
    }
}

/// A `bool` flag, then the value when it is set.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut FrameBuf) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Option<T>, NetError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

/// A `u32` count, then each element.
impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut FrameBuf) {
        out.put_u32(self.len() as u32);
        self.iter().for_each(|v| v.put(out));
    }

    fn get(r: &mut WireReader<'_>) -> Result<Vec<T>, NetError> {
        let n = r.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, out: &mut FrameBuf) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut WireReader<'_>) -> Result<(A, B), NetError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Field> Field for Box<T> {
    fn put(&self, out: &mut FrameBuf) {
        T::put(self, out);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Box<T>, NetError> {
        Ok(Box::new(T::get(r)?))
    }
}
