//! Byte regions backing the data and parity heaps.

use crate::NetError;

/// A zero-initialised, growable byte region owned by one node: the
/// backing store of a data or parity heap. Peers never touch it; they
/// ask its owner for bytes with a message.
pub struct MemoryRegion {
    data: Vec<u8>,
}

impl std::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemoryRegion({} bytes)", self.len())
    }
}

impl MemoryRegion {
    /// Allocates a zeroed region of `len` bytes.
    pub fn new(len: usize) -> MemoryRegion {
        MemoryRegion {
            data: vec![0u8; len],
        }
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grows the region to `new_len` bytes (no-op if already larger).
    pub fn grow(&mut self, new_len: usize) {
        if self.data.len() < new_len {
            self.data.resize(new_len, 0);
        }
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::OutOfBounds`] if the range exceeds the region.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, NetError> {
        let d = &self.data;
        let end = offset.checked_add(len).ok_or(NetError::OutOfBounds {
            offset,
            len,
            region: d.len(),
        })?;
        if end > d.len() {
            return Err(NetError::OutOfBounds {
                offset,
                len,
                region: d.len(),
            });
        }
        Ok(d[offset..end].to_vec())
    }

    /// Reads `len` bytes at `offset`, zeros past the end of the region:
    /// regions grow lazily, and unwritten bytes are zero by definition.
    /// The one place that padding rule is written.
    pub fn read_padded(&self, offset: usize, len: usize) -> Vec<u8> {
        let d = &self.data;
        let start = offset.min(d.len());
        let end = offset.saturating_add(len).min(d.len());
        let mut out = vec![0u8; len];
        out[..end - start].copy_from_slice(&d[start..end]);
        out
    }

    /// Writes `bytes` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::OutOfBounds`] if the range exceeds the region.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) -> Result<(), NetError> {
        let d = &mut self.data;
        let end = offset
            .checked_add(bytes.len())
            .ok_or(NetError::OutOfBounds {
                offset,
                len: bytes.len(),
                region: d.len(),
            })?;
        if end > d.len() {
            return Err(NetError::OutOfBounds {
                offset,
                len: bytes.len(),
                region: d.len(),
            });
        }
        d[offset..end].copy_from_slice(bytes);
        Ok(())
    }

    /// XORs `bytes` into the region at `offset` (used by parity updates).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::OutOfBounds`] if the range exceeds the region.
    pub fn xor(&mut self, offset: usize, bytes: &[u8]) -> Result<(), NetError> {
        let d = &mut self.data;
        let end = offset
            .checked_add(bytes.len())
            .ok_or(NetError::OutOfBounds {
                offset,
                len: bytes.len(),
                region: d.len(),
            })?;
        if end > d.len() {
            return Err(NetError::OutOfBounds {
                offset,
                len: bytes.len(),
                region: d.len(),
            });
        }
        // Word-wide XOR: this sits on the parity-update hot path.
        let dst = &mut d[offset..end];
        let mut cd = dst.chunks_exact_mut(8);
        let mut cs = bytes.chunks_exact(8);
        for (dw, sw) in cd.by_ref().zip(cs.by_ref()) {
            let v = u64::from_ne_bytes(dw.try_into().expect("chunk of 8"))
                ^ u64::from_ne_bytes(sw.try_into().expect("chunk of 8"));
            dw.copy_from_slice(&v.to_ne_bytes());
        }
        for (dst, src) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
            *dst ^= src;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut mr = MemoryRegion::new(16);
        mr.write(4, &[1, 2, 3]).unwrap();
        assert_eq!(mr.read(4, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(mr.read(3, 2).unwrap(), vec![0, 1]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut mr = MemoryRegion::new(8);
        assert!(matches!(mr.read(7, 2), Err(NetError::OutOfBounds { .. })));
        assert!(matches!(
            mr.write(8, &[1]),
            Err(NetError::OutOfBounds { .. })
        ));
        assert!(mr.read(8, 0).is_ok());
    }

    #[test]
    fn overflowing_offset_rejected() {
        let mr = MemoryRegion::new(8);
        assert!(matches!(
            mr.read(usize::MAX, 2),
            Err(NetError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn xor_accumulates() {
        let mut mr = MemoryRegion::new(4);
        mr.xor(0, &[0b1010, 0b0001]).unwrap();
        mr.xor(0, &[0b0110, 0b0001]).unwrap();
        assert_eq!(mr.read(0, 2).unwrap(), vec![0b1100, 0]);
    }

    #[test]
    fn grow_preserves_contents() {
        let mut mr = MemoryRegion::new(2);
        mr.write(0, &[9, 9]).unwrap();
        mr.grow(4);
        assert_eq!(mr.read(0, 4).unwrap(), vec![9, 9, 0, 0]);
        mr.grow(2); // No shrink.
        assert_eq!(mr.len(), 4);
    }
}
