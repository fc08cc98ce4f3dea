package core

// Helpers only this package's tests use.

import "aft/internal/idgen"

// VersionsOf returns the committed versions of key known locally, ascending.
func (n *Node) VersionsOf(key string) []idgen.ID {
	s := n.stripeFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]idgen.ID(nil), s.index.atLeast(key, idgen.Null)...)
}
