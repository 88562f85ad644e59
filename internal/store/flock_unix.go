//go:build unix

package store

import (
	"os"
	"syscall"
)

// flockFile blocks until it holds an exclusive flock(2) on f. The lock
// belongs to f's open file description, so it excludes every other
// open of the same file: other processes, and other Store instances in
// this one.
func flockFile(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			return err
		}
	}
}

// funlockFile releases flockFile's lock. LOCK_UN fails only on a bad
// descriptor, which the successful flockFile on f rules out.
func funlockFile(f *os.File) { _ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }
