package machine

import "fmt"

// Calibration carries communication costs measured on a real message
// plane — the distributed runtime's echo probes over its TCP transport
// — expressed in the machine model's own terms. Applying a calibration
// replaces the machine's assumed message startup and per-word
// transmission time with the measured ones, so schedules are built
// from the latency the wire actually exhibits.
type Calibration struct {
	// MsgStartup is the measured per-message software latency
	// (microseconds): half the round-trip time of a minimal frame.
	MsgStartup Time
	// WordTime is the measured per-word transmission time
	// (microseconds per word per hop), derived from the round-trip
	// difference between a large and a minimal frame.
	WordTime Time
}

// Validate checks the calibration is physically meaningful.
func (c Calibration) Validate() error {
	if c.MsgStartup < 0 || c.WordTime < 0 {
		return fmt.Errorf("machine calibration: negative latency (%+v)", c)
	}
	if c.MsgStartup == 0 && c.WordTime == 0 {
		return fmt.Errorf("machine calibration: empty (no measured costs)")
	}
	return nil
}

// String renders the calibration compactly.
func (c Calibration) String() string {
	return fmt.Sprintf("msg startup=%v, word time=%v", c.MsgStartup, c.WordTime)
}

// Calibrated returns a machine identical to m but with communication
// parameters replaced by the measured ones. A measured word time of
// zero (transmission too fast to resolve in integer microseconds)
// keeps the model's word time so communication never becomes free.
func (m *Machine) Calibrated(c Calibration) (*Machine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p := m.Params
	if c.MsgStartup > 0 {
		p.MsgStartup = c.MsgStartup
	}
	if c.WordTime > 0 {
		p.WordTime = c.WordTime
	}
	nm, err := New(m.Name+"/calibrated", m.Topo, p)
	if err != nil {
		return nil, err
	}
	if m.Speeds != nil {
		if err := nm.SetSpeeds(m.Speeds); err != nil {
			return nil, err
		}
	}
	return nm, nil
}
