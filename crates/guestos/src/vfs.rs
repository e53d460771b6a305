//! Minimal file layer: files are contiguous extents on the guest's virtual
//! disk address space. Workloads speak `(file, offset, len)`; the kernel
//! translates to virtual-disk byte offsets, which the hypervisor later
//! shifts into the host device's address space.

/// Identifies a file inside one guest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FileId(pub u64);

/// One file record.
#[derive(Clone, Copy, Debug)]
struct FileMeta {
    start: u64,
    size: u64,
    /// Where the last read ended (the readahead cursor); `NO_READ`
    /// before the first read.
    read_end: u64,
}

/// `FileMeta::read_end` of a file never read.
const NO_READ: u64 = u64::MAX;

/// A bump extent allocator plus the file table. Files are never deleted,
/// so each file starts where the previous one ends.
#[derive(Clone, Debug)]
pub struct Vfs {
    disk_size: u64,
    /// Files indexed by id (ids are dense, so lookup is one
    /// bounds-checked index).
    files: Vec<FileMeta>,
    /// Start of the unallocated tail of the disk.
    next_free: u64,
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
        Vfs {
            disk_size,
            files: Vec::new(),
            next_free: 0,
        }
    }

    /// Virtual-disk size in bytes.
    pub fn disk_size(&self) -> u64 {
        self.disk_size
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total bytes allocated to files.
    pub fn used_bytes(&self) -> u64 {
        self.next_free
    }

    /// Create a file of `size` bytes right after the last one.
    pub fn create(&mut self, size: u64) -> Result<FileId, VfsError> {
        assert!(size > 0, "zero-sized files are not modelled");
        if size > self.disk_size - self.next_free {
            return Err(VfsError::NoSpace);
        }
        let id = FileId(self.files.len() as u64);
        self.files.push(FileMeta {
            start: self.next_free,
            size,
            read_end: NO_READ,
        });
        self.next_free += size;
        Ok(id)
    }

    /// File size in bytes.
    pub fn size_of(&self, id: FileId) -> Result<u64, VfsError> {
        self.meta(id).map(|m| m.size)
    }

    fn meta(&self, id: FileId) -> Result<&FileMeta, VfsError> {
        self.files.get(id.0 as usize).ok_or(VfsError::NotFound)
    }

    /// Translate a file-relative range to a virtual-disk byte offset.
    pub fn translate(&self, id: FileId, offset: u64, len: u64) -> Result<u64, VfsError> {
        let meta = self.meta(id)?;
        if offset + len > meta.size {
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
            .ok_or(VfsError::NotFound)?;
        if offset + len > meta.size {
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
        assert_eq!(std::mem::size_of::<FileMeta>(), 24);
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
}
