//go:build linux

package collector

import (
	"io"
	"os"
	"syscall"
)

// mmapFile maps path read-only and returns its bytes plus the closer
// that unmaps them. Empty and non-regular files (where mmap is
// meaningless or would fail) fall back to a plain read. The fd is
// closed immediately after mapping — the mapping outlives it.
func mmapFile(path string) ([]byte, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if !fi.Mode().IsRegular() || size == 0 {
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, nil, err
		}
		return data, nopCloser{}, nil
	}
	if size != int64(int(size)) {
		return nil, nil, syscall.EFBIG
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	return data, munmapCloser(data), nil
}

// munmapCloser unmaps its mapping on Close. Any slice still aliasing
// the mapping (a RouteBlock's columns) faults on use after Close — the
// OpenSnapshotAt lifetime contract.
type munmapCloser []byte

func (m munmapCloser) Close() error { return syscall.Munmap(m) }

type nopCloser struct{}

func (nopCloser) Close() error { return nil }
