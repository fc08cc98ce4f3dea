package latency

// Helpers only this package's tests use.

// Clone returns a deep copy of the profile.
func (p Profile) Clone() Profile {
	q := make(Profile, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}

// ZeroProfile returns an empty profile (all samples zero).
func ZeroProfile() Profile { return Profile{} }
