"""``StreamWriter`` / ``StreamReader`` — buffered text adapters.

The paper's POST handler stores uploaded data "using streamwriter
class"; this module reproduces the buffered-writer behaviour: small
writes accumulate in a memory buffer and reach the file system in
buffer-sized chunks, so per-write cost is dominated by the flush
pattern, not the call count.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import FileSystemError
from repro.io.filestream import FileStream

__all__ = ["StreamWriter", "StreamReader"]

_NEWLINE_BYTES = 2  # CRLF, as on the paper's Windows XP platform


class StreamWriter:
    """Buffered writer over a :class:`FileStream`.

    ``buffer_size`` mirrors the CLR default of 1024 chars (bytes here:
    the simulation does not model encodings beyond a 1-byte charset).
    """

    def __init__(self, stream: FileStream, buffer_size: int = 1024) -> None:
        if buffer_size < 1:
            raise FileSystemError(f"buffer_size must be >= 1, got {buffer_size}")
        self.stream = stream
        self.buffer_size = buffer_size
        self._buffered = 0
        self.bytes_written = 0

    def write(self, nbytes: int):
        """Generator: buffer ``nbytes``; flushes whole buffers through."""
        if nbytes < 0:
            raise FileSystemError(f"negative write: {nbytes}")
        self._buffered += nbytes
        self.bytes_written += nbytes
        while self._buffered >= self.buffer_size:
            yield from self.stream.write(self.buffer_size)
            self._buffered -= self.buffer_size

    def write_line(self, nbytes: int):
        """Generator: ``write`` plus a platform newline."""
        yield from self.write(nbytes + _NEWLINE_BYTES)

    def flush(self):
        """Generator: push any residual buffered bytes to the stream."""
        if self._buffered > 0:
            yield from self.stream.write(self._buffered)
            self._buffered = 0
        else:
            yield 0.0

    def close(self):
        """Generator: flush, then close the underlying stream."""
        yield from self.flush()
        yield from self.stream.close()


class StreamReader:
    """Buffered reader over a :class:`FileStream`.

    Reads ahead ``buffer_size`` bytes at a time; ``read`` serves from
    the buffer, hitting the file system only on refills.
    """

    def __init__(self, stream: FileStream, buffer_size: int = 1024) -> None:
        if buffer_size < 1:
            raise FileSystemError(f"buffer_size must be >= 1, got {buffer_size}")
        self.stream = stream
        self.buffer_size = buffer_size
        self._buffered = 0
        self._eof = False
        self.bytes_read = 0

    def read(self, nbytes: int):
        """Generator: deliver up to ``nbytes``; returns 0 at EOF."""
        if nbytes < 0:
            raise FileSystemError(f"negative read: {nbytes}")
        delivered = 0
        while delivered < nbytes:
            if self._buffered == 0:
                if self._eof:
                    break
                got = yield from self.stream.read(self.buffer_size)
                if got == 0:
                    self._eof = True
                    break
                self._buffered = got
            take = min(self._buffered, nbytes - delivered)
            self._buffered -= take
            delivered += take
        self.bytes_read += delivered
        return delivered

    def close(self):
        """Generator: close the underlying stream."""
        yield from self.stream.close()
