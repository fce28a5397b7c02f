package sc

// HashSum and HashFromScratch expose a configuration's incrementally
// maintained fingerprint sum and its from-scratch value to the
// external tests.
func (c *Config) HashSum() uint64                  { return c.h }
func (s *System) HashFromScratch(c *Config) uint64 { return s.hash(c) }
func (c *Config) Cur() int                         { return c.cur }
