package kv

// Read returns the committed value of item i without any transaction
// bookkeeping, for seeding and checking the store in tests.
func (s *Store) Read(i int) int64 {
	sh := &s.shards[i&s.mask]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.vals[i>>s.bits]
}

// Write installs v at item i outside any transaction, bumping the item's
// version so concurrent optimistic transactions that read it will fail
// certification. Tests use it to seed values and to force conflicts.
func (s *Store) Write(i int, v int64) {
	sh := &s.shards[i&s.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.vals[i>>s.bits] = v
	sh.vers[i>>s.bits]++
}
