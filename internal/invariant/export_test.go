package invariant

import (
	"testing"

	"composable/internal/fabric"
)

// WatchNetworkAgainstReference is watchNetworkAgainstReference for the
// external differential tests, which need scengen and so cannot live in
// this package: it returns the reference audit's Set.
func WatchNetworkAgainstReference(t testing.TB, s *Set, net *fabric.Network) *Set {
	_, ref := watchNetworkAgainstReference(t, s, net)
	return ref
}
