//go:build !unix

package store

import "os"

// flockFile is a no-op off unix: leases are then serialized only within
// one Store instance (leaseMu), and Store instances sharing a directory
// can race on an expired lease.
func flockFile(f *os.File) error { return nil }

func funlockFile(f *os.File) {}
