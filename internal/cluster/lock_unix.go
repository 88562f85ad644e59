//go:build unix

package cluster

import (
	"os"
	"syscall"
)

// lockOwner takes an exclusive, non-blocking flock(2) on f. The lock
// belongs to f's open file description, so it excludes every other
// open of the same file — in other processes and in this one — until f
// is closed or the process exits.
func lockOwner(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if err != syscall.EINTR {
			return err
		}
	}
}
