//go:build linux

package dataset

import "syscall"

// madviseSequential hints the kernel that the mapping will be scanned
// mostly forward, enlarging its read-ahead window. Advisory only; errors
// are ignored.
func madviseSequential(b []byte) {
	if len(b) > 0 {
		_ = syscall.Madvise(b, syscall.MADV_SEQUENTIAL)
	}
}
