//! Minimal file layer: files are contiguous extents on the guest's virtual
//! disk address space. Workloads speak `(file, offset, len)`; the kernel
//! translates to virtual-disk byte offsets, which the hypervisor later
//! shifts into the host device's address space.

use std::collections::BTreeMap;
use std::num::NonZeroU64;

/// Identifies a file inside one guest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FileId(pub u64);

/// One file record. The nonzero size gives `Option<FileMeta>` a niche,
/// so a file-table slot stays 24 bytes.
#[derive(Clone, Copy, Debug)]
struct FileMeta {
    start: u64,
    size: NonZeroU64,
    /// Where the last read ended (the readahead cursor); `NO_READ`
    /// before the first read.
    read_end: u64,
}

/// `FileMeta::read_end` of a file never read.
const NO_READ: u64 = u64::MAX;

/// A first-fit extent allocator plus the file table.
#[derive(Clone, Debug)]
pub struct Vfs {
    disk_size: u64,
    /// Live files indexed by id (ids are dense and never reused, so
    /// lookup is one bounds-checked index); `None` marks a deleted file.
    files: Vec<Option<FileMeta>>,
    // Free extents keyed by start offset -> length; coalesced on free.
    free: BTreeMap<u64, u64>,
}

/// Errors from file operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VfsError {
    /// No contiguous free extent large enough.
    NoSpace,
    /// Unknown file id.
    NotFound,
    /// Access beyond end of file.
    OutOfBounds,
}

impl Vfs {
    /// A filesystem over a virtual disk of `disk_size` bytes.
    pub fn new(disk_size: u64) -> Self {
        let mut free = BTreeMap::new();
        if disk_size > 0 {
            free.insert(0, disk_size);
        }
        Vfs {
            disk_size,
            files: Vec::new(),
            free,
        }
    }

    /// Virtual-disk size in bytes.
    pub fn disk_size(&self) -> u64 {
        self.disk_size
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.files.iter().flatten().count()
    }

    /// Total bytes allocated to files.
    pub fn used_bytes(&self) -> u64 {
        self.files.iter().flatten().map(|f| f.size.get()).sum()
    }

    /// Create a file of `size` bytes (first-fit).
    pub fn create(&mut self, size: u64) -> Result<FileId, VfsError> {
        let nonzero = NonZeroU64::new(size).expect("zero-sized files are not modelled");
        let slot = self
            .free
            .iter()
            .find(|(_, &len)| len >= size)
            .map(|(&start, &len)| (start, len));
        let (start, len) = slot.ok_or(VfsError::NoSpace)?;
        self.free.remove(&start);
        if len > size {
            self.free.insert(start + size, len - size);
        }
        let id = FileId(self.files.len() as u64);
        self.files.push(Some(FileMeta {
            start,
            size: nonzero,
            read_end: NO_READ,
        }));
        Ok(id)
    }

    /// Delete a file, returning its extent to the free list (coalescing
    /// with neighbours).
    pub fn delete(&mut self, id: FileId) -> Result<(), VfsError> {
        let meta = self
            .files
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(VfsError::NotFound)?;
        let mut start = meta.start;
        let mut len = meta.size.get();
        // Coalesce with the previous free extent if adjacent.
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        // Coalesce with the next free extent if adjacent.
        if let Some((&next_start, &next_len)) = self.free.range(start..).next() {
            if start + len == next_start {
                self.free.remove(&next_start);
                len += next_len;
            }
        }
        self.free.insert(start, len);
        Ok(())
    }

    /// File size in bytes.
    pub fn size_of(&self, id: FileId) -> Result<u64, VfsError> {
        self.meta(id).map(|m| m.size.get())
    }

    fn meta(&self, id: FileId) -> Result<&FileMeta, VfsError> {
        self.files
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(VfsError::NotFound)
    }

    /// Translate a file-relative range to a virtual-disk byte offset.
    pub fn translate(&self, id: FileId, offset: u64, len: u64) -> Result<u64, VfsError> {
        let meta = self.meta(id)?;
        if offset + len > meta.size.get() {
            return Err(VfsError::OutOfBounds);
        }
        Ok(meta.start + offset)
    }

    /// Translate a read like [`Vfs::translate`] and advance the file's
    /// read cursor to its end. Also returns whether the read is
    /// sequential: it starts where the previous read of the file ended.
    /// A rejected read leaves the cursor alone.
    pub fn translate_read(
        &mut self,
        id: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(u64, bool), VfsError> {
        let meta = self
            .files
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(VfsError::NotFound)?;
        if offset + len > meta.size.get() {
            return Err(VfsError::OutOfBounds);
        }
        let sequential = meta.read_end == offset;
        meta.read_end = offset + len;
        Ok((meta.start + offset, sequential))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_translate() {
        let mut vfs = Vfs::new(1 << 20);
        let a = vfs.create(4096).unwrap();
        let b = vfs.create(8192).unwrap();
        assert_ne!(a, b);
        assert_eq!(vfs.translate(a, 0, 4096).unwrap(), 0);
        assert_eq!(vfs.translate(b, 100, 10).unwrap(), 4096 + 100);
        assert_eq!(vfs.file_count(), 2);
        assert_eq!(vfs.used_bytes(), 12288);
    }

    #[test]
    fn file_slot_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Option<FileMeta>>(), 24);
    }

    #[test]
    fn read_cursor_flags_sequential_reads() {
        let mut vfs = Vfs::new(1 << 20);
        let a = vfs.create(8192).unwrap();
        let b = vfs.create(8192).unwrap();
        // The first read is never sequential, even at offset 0.
        assert_eq!(vfs.translate_read(a, 0, 100), Ok((0, false)));
        assert_eq!(vfs.translate_read(a, 100, 50), Ok((100, true)));
        // Cursors are per file.
        assert_eq!(vfs.translate_read(b, 0, 10), Ok((8192, false)));
        assert_eq!(vfs.translate_read(a, 0, 10), Ok((0, false)));
        // A rejected read does not move the cursor.
        assert_eq!(vfs.translate_read(a, 10, 9000), Err(VfsError::OutOfBounds));
        assert_eq!(vfs.translate_read(a, 10, 1), Ok((10, true)));
        // Deleting the file drops its cursor with the record.
        vfs.delete(a).unwrap();
        assert_eq!(vfs.translate_read(a, 11, 1), Err(VfsError::NotFound));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut vfs = Vfs::new(1 << 20);
        let a = vfs.create(4096).unwrap();
        assert_eq!(vfs.translate(a, 4000, 200), Err(VfsError::OutOfBounds));
        assert_eq!(vfs.translate(FileId(99), 0, 1), Err(VfsError::NotFound));
    }

    #[test]
    fn no_space_when_full() {
        let mut vfs = Vfs::new(10_000);
        vfs.create(8_000).unwrap();
        assert_eq!(vfs.create(4_000), Err(VfsError::NoSpace));
        // But a smaller file still fits.
        assert!(vfs.create(2_000).is_ok());
    }

    #[test]
    fn delete_coalesces_free_space() {
        let mut vfs = Vfs::new(12_000);
        let a = vfs.create(4_000).unwrap();
        let b = vfs.create(4_000).unwrap();
        let c = vfs.create(4_000).unwrap();
        // Free the middle, then the first: they must coalesce so a
        // 8000-byte file fits again.
        vfs.delete(b).unwrap();
        vfs.delete(a).unwrap();
        let d = vfs.create(8_000).unwrap();
        assert_eq!(vfs.translate(d, 0, 1).unwrap(), 0);
        // Freeing everything coalesces back to one extent of the full disk.
        vfs.delete(c).unwrap();
        vfs.delete(d).unwrap();
        let e = vfs.create(12_000).unwrap();
        assert_eq!(vfs.translate(e, 0, 1).unwrap(), 0);
    }

    #[test]
    fn delete_unknown_file() {
        let mut vfs = Vfs::new(1 << 20);
        assert_eq!(vfs.delete(FileId(5)), Err(VfsError::NotFound));
    }

    #[test]
    fn reuse_after_delete_first_fit() {
        let mut vfs = Vfs::new(20_000);
        let a = vfs.create(5_000).unwrap();
        let _b = vfs.create(5_000).unwrap();
        vfs.delete(a).unwrap();
        // New small file lands in the freed hole (first fit).
        let c = vfs.create(1_000).unwrap();
        assert_eq!(vfs.translate(c, 0, 1).unwrap(), 0);
    }
}
