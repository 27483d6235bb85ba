package cloud

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gpurelay/internal/faultsim"
	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
)

// DeviceState is the health of one physical GPU behind the service.
type DeviceState int

const (
	// DeviceHealthy devices are offered to new sessions.
	DeviceHealthy DeviceState = iota
	// DeviceDegraded devices took an uncorrectable ECC fault. They are
	// never offered to new sessions again — a migrated session must land
	// on different silicon — but their VM teardown is orderly.
	DeviceDegraded
	// DeviceDead devices fell off the bus (XID 79). Permanently gone.
	DeviceDead
)

func (s DeviceState) String() string {
	switch s {
	case DeviceHealthy:
		return "healthy"
	case DeviceDegraded:
		return "degraded"
	case DeviceDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Device is one physical GPU slot behind the service. The paper's cloud has
// no physical GPUs — the "device" is the client's, relayed — but the fleet
// still schedules sessions onto per-VM GPU attachments, and it is these
// attachments whose health the Navarch-style events degrade. A Device keeps
// its own mutex (never the Service's) so health reports arriving from the
// resilience layer work regardless of which shard currently owns the VM.
type Device struct {
	mu         sync.Mutex
	id         string
	state      DeviceState
	busy       bool
	throttled  time.Duration
	sbe, dbe   int
	fallOffs   int
	migrations int
	reg        *obs.Registry
}

// DeviceInfo is a point-in-time snapshot of one device's health books.
type DeviceInfo struct {
	ID         string        `json:"id"`
	State      string        `json:"state"`
	Busy       bool          `json:"busy"`
	Throttled  time.Duration `json:"throttled_ns"`
	ECCSBE     int           `json:"ecc_sbe"`
	ECCDBE     int           `json:"ecc_dbe"`
	FallOffs   int           `json:"falloffs"`
	Migrations int           `json:"migrations"`
}

// ID returns the device's fleet-unique identifier (shard-prefixed under a
// ShardedService, e.g. "s2/gpu-01").
func (d *Device) ID() string { return d.id }

// State returns the device's current health state.
func (d *Device) State() DeviceState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Info snapshots the device's books.
func (d *Device) Info() DeviceInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DeviceInfo{
		ID: d.id, State: d.state.String(), Busy: d.busy,
		Throttled: d.throttled, ECCSBE: d.sbe, ECCDBE: d.dbe,
		FallOffs: d.fallOffs, Migrations: d.migrations,
	}
}

func (d *Device) lbl() obs.Label { return obs.L("device", d.id) }

// available reports whether the device can host a new session. Callers
// hold d.mu via the calling method; this helper takes the lock itself so
// Service.Launch can poll it without layering violations.
func (d *Device) available() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state == DeviceHealthy && !d.busy
}

func (d *Device) setBusy(b bool) {
	d.mu.Lock()
	d.busy = b
	d.mu.Unlock()
}

// AddThrottle books virtual time the device spent thermally throttled. A
// throttled device stays healthy — the cap is the recovery mechanism.
func (d *Device) AddThrottle(t time.Duration) {
	if t <= 0 {
		return
	}
	d.mu.Lock()
	d.throttled += t
	reg := d.reg
	d.mu.Unlock()
	if reg != nil {
		reg.Add(obs.MDeviceThrottleNS, int64(t), d.lbl())
	}
}

// AddSBE books corrected single-bit ECC faults. Corrected faults keep the
// device healthy; the count is what a fleet operator trends.
func (d *Device) AddSBE(n int) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	d.sbe += n
	reg := d.reg
	d.mu.Unlock()
	if reg != nil {
		reg.Add(obs.MDeviceECCErrors, int64(n), d.lbl(), obs.L("kind", "sbe"))
	}
}

// MarkDBE books an uncorrectable double-bit ECC fault and degrades the
// device: it is never offered to a new session again, which is what makes a
// re-admitted session land on different silicon.
func (d *Device) MarkDBE() {
	d.mu.Lock()
	d.dbe++
	if d.state == DeviceHealthy {
		d.state = DeviceDegraded
	}
	reg := d.reg
	d.mu.Unlock()
	if reg != nil {
		reg.Add(obs.MDeviceECCErrors, 1, d.lbl(), obs.L("kind", "dbe"))
		reg.GaugeSet(obs.MDeviceDegraded, 1, d.lbl())
	}
}

// MarkFallOff books an XID-79 bus fall-off: the device is dead, permanently.
func (d *Device) MarkFallOff() {
	d.mu.Lock()
	d.fallOffs++
	d.state = DeviceDead
	reg := d.reg
	d.mu.Unlock()
	if reg != nil {
		reg.Add(obs.MDeviceFallOffs, 1, d.lbl())
		reg.GaugeSet(obs.MDeviceDead, 1, d.lbl())
	}
}

// NoteMigration books one session migrated OFF this device after it died
// under them.
func (d *Device) NoteMigration() {
	d.mu.Lock()
	d.migrations++
	reg := d.reg
	d.mu.Unlock()
	if reg != nil {
		reg.Add(obs.MDeviceMigrations, 1, d.lbl())
	}
}

// DeviceBooks carries one logical session's device-health books across its
// attempts. The fault injector's tallies are cumulative over every attempt
// and are the only record that survives an attempt whose stats died with
// it, so Book charges a device only the growth since the previous call.
// Lost marks the device an attempt died on, and Migrated notes the
// migration once the session re-admits on different silicon. Flight (nil
// is fine) journals both under Session.
type DeviceBooks struct {
	Flight    *obs.FlightRecorder
	Session   string
	sbe       int
	throttled time.Duration
	lost      *Device
}

// Book charges dev, the device that hosted the attempt, with the corrected
// ECC faults and throttled time faults tallied since the previous call.
func (b *DeviceBooks) Book(dev *Device, faults *faultsim.Session) {
	if faults == nil || dev == nil {
		return
	}
	hc := faults.HealthCounts()
	if d := hc.SBE - b.sbe; d > 0 {
		dev.AddSBE(d)
		b.sbe = hc.SBE
	}
	if d := hc.Throttled - b.throttled; d > 0 {
		dev.AddThrottle(d)
		b.throttled = hc.Throttled
	}
}

// Lost books an attempt on dev that failed with err. A device loss marks
// dev so no later admission lands on it — an uncorrectable ECC fault
// degrades it (orderly teardown, poisoned memory), a bus fall-off (XID 79)
// kills it — and is remembered until Migrated. Any other error is not the
// device's fault and books nothing.
func (b *DeviceBooks) Lost(dev *Device, err error, now time.Duration, attempt int) {
	if dev == nil || !errors.Is(err, grterr.ErrDeviceLost) {
		return
	}
	if errors.Is(err, grterr.ErrBadRecording) {
		dev.MarkDBE()
	} else {
		dev.MarkFallOff()
	}
	b.lost = dev
	b.Flight.Emit(now, b.Session, obs.FKHealthEvent, "device_lost "+dev.ID(),
		obs.A("attempt", int64(attempt)))
}

// Migrated notes the session's move off the device it last lost, now that
// attempt re-admitted it onto to, and returns the route ("gpu-00->gpu-01";
// flight args are numeric, so the route rides in the note). It returns ""
// when no device loss is pending.
func (b *DeviceBooks) Migrated(to *Device, now time.Duration, attempt int) string {
	if b.lost == nil {
		return ""
	}
	b.lost.NoteMigration()
	route := b.lost.ID() + "->"
	if to != nil {
		route += to.ID()
	}
	b.lost = nil
	b.Flight.Emit(now, b.Session, obs.FKHealthMigrate, route, obs.A("attempt", int64(attempt)))
	return route
}

func (d *Device) setRegistry(reg *obs.Registry) {
	d.mu.Lock()
	d.reg = reg
	d.mu.Unlock()
}

// InstrumentDevices attaches the fleet metrics registry to the device
// inventory: every device (existing and future) publishes its grt_device_*
// series there.
func (s *Service) InstrumentDevices(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.devReg = reg
	for _, d := range s.devices {
		d.setRegistry(reg)
	}
}

// SetDevicePrefix namespaces device IDs (e.g. "s2/" under shard 2 of a
// ShardedService) so one fleet registry holds distinct per-device series.
func (s *Service) SetDevicePrefix(p string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.devPrefix = p
}

// Devices snapshots the health books of every device the service has ever
// attached, in attachment order.
func (s *Service) Devices() []DeviceInfo {
	s.mu.Lock()
	devs := append([]*Device(nil), s.devices...)
	s.mu.Unlock()
	out := make([]DeviceInfo, len(devs))
	for i, d := range devs {
		out[i] = d.Info()
	}
	return out
}

// assignDevice picks the first free healthy device or attaches a new one.
// Callers hold s.mu. Dead and degraded devices are never offered again, so
// a session re-admitted after ErrDeviceLost lands on different silicon by
// construction.
func (s *Service) assignDevice() *Device {
	for _, d := range s.devices {
		if d.available() {
			d.setBusy(true)
			return d
		}
	}
	d := &Device{
		id:  fmt.Sprintf("%sgpu-%02d", s.devPrefix, len(s.devices)),
		reg: s.devReg,
	}
	d.busy = true
	s.devices = append(s.devices, d)
	return d
}
