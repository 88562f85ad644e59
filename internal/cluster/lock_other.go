//go:build !unix

package cluster

import "os"

// lockOwner is a no-op off unix: a second arbiter over the same
// directory is then not refused, and the operator must keep one owner.
func lockOwner(*os.File) error { return nil }
