package tee

import (
	"bytes"
	"crypto/rand"
	"testing"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/mali"
	"gpurelay/internal/timesim"
)

func newController(t *testing.T) (*Controller, *mali.GPU) {
	t.Helper()
	gpu := mali.New(mali.G71MP8, gpumem.NewPool(1<<20), timesim.NewClock(), 1)
	return NewController(gpu), gpu
}

func TestNormalWorldAccessBlockedWhileSecure(t *testing.T) {
	c, _ := newController(t)
	// Before claiming, the OS drives the GPU freely.
	if _, err := c.ReadReg(NormalWorld, mali.GPU_ID); err != nil {
		t.Fatalf("normal read before claim: %v", err)
	}
	c.ClaimForSecure()
	if _, err := c.ReadReg(NormalWorld, mali.GPU_ID); err == nil {
		t.Fatal("normal-world read allowed while GPU is secure")
	}
	if err := c.WriteReg(NormalWorld, mali.GPU_COMMAND, 1); err == nil {
		t.Fatal("normal-world write allowed while GPU is secure")
	}
	// The TEE itself still has access.
	if _, err := c.ReadReg(SecureWorld, mali.GPU_ID); err != nil {
		t.Fatalf("secure read: %v", err)
	}
	c.ReleaseToNormal()
	if _, err := c.ReadReg(NormalWorld, mali.GPU_ID); err != nil {
		t.Fatalf("normal read after release: %v", err)
	}
}

func TestReleaseScrubsGPUState(t *testing.T) {
	c, gpu := newController(t)
	c.ClaimForSecure()
	if err := c.WriteReg(SecureWorld, mali.SHADER_PWRON_LO, 0xFF); err != nil {
		t.Fatal(err)
	}
	for gpu.ReadReg(mali.SHADER_PWRTRANS_LO) != 0 {
	}
	c.ReleaseToNormal()
	if got, _ := c.ReadReg(NormalWorld, mali.SHADER_READY_LO); got != 0 {
		t.Fatalf("GPU state survived the secure session: SHADER_READY=%#x", got)
	}
}

func TestIRQRoutingHidesInterruptsFromOS(t *testing.T) {
	c, gpu := newController(t)
	c.ClaimForSecure()
	// Produce a GPU interrupt inside the secure session. Reset clears
	// the masks, so re-arm afterwards.
	gpu.WriteReg(mali.GPU_COMMAND, mali.GPUCommandSoftReset)
	for gpu.ReadReg(mali.GPU_IRQ_RAWSTAT)&mali.GPUIRQResetCompleted == 0 {
	}
	gpu.WriteReg(mali.GPU_IRQ_MASK, 0xFFFFFFFF)
	if _, g, _, _ := c.PendingIRQ(NormalWorld); g != 0 {
		t.Fatal("normal world observed a secure-session IRQ")
	}
	if _, g, _, _ := c.PendingIRQ(SecureWorld); g == 0 {
		t.Fatal("secure world missed its IRQ")
	}
}

func sessionKeyPair(t *testing.T) (*SecureChannel, *SecureChannel) {
	t.Helper()
	var m [32]byte
	cn, sn := make([]byte, 16), make([]byte, 16)
	rand.Read(cn)
	rand.Read(sn)
	key := DeriveSessionKey(m, cn, sn)
	a, err := NewSecureChannel(key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecureChannel(key)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSecureChannelRoundTrip(t *testing.T) {
	client, cloud := sessionKeyPair(t)
	msg := []byte("commit batch #1")
	ct := client.Seal(msg, true)
	if bytes.Contains(ct, msg) {
		t.Fatal("ciphertext contains plaintext")
	}
	pt, err := cloud.Open(ct, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatalf("decrypted %q", pt)
	}
}

func TestSecureChannelRejectsTampering(t *testing.T) {
	client, cloud := sessionKeyPair(t)
	ct := client.Seal([]byte("register values"), true)
	ct[len(ct)-1] ^= 1
	if _, err := cloud.Open(ct, true); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestSecureChannelRejectsReplay(t *testing.T) {
	client, cloud := sessionKeyPair(t)
	ct1 := client.Seal([]byte("one"), true)
	ct2 := client.Seal([]byte("two"), true)
	if _, err := cloud.Open(ct1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.Open(ct2, true); err != nil {
		t.Fatal(err)
	}
	// A network adversary replays the first message.
	if _, err := cloud.Open(ct1, true); err == nil {
		t.Fatal("replayed message accepted")
	}
}

func TestSecureChannelWrongKey(t *testing.T) {
	client, _ := sessionKeyPair(t)
	_, other := sessionKeyPair(t)
	ct := client.Seal([]byte("secret"), true)
	if _, err := other.Open(ct, true); err == nil {
		t.Fatal("cross-session decryption succeeded")
	}
}

func TestSecureChannelKeyLength(t *testing.T) {
	if _, err := NewSecureChannel([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestDeriveSessionKeyDependsOnAllInputs(t *testing.T) {
	var m1, m2 [32]byte
	m2[0] = 1
	n1, n2 := []byte("nonce-a"), []byte("nonce-b")
	base := DeriveSessionKey(m1, n1, n2)
	if bytes.Equal(base, DeriveSessionKey(m2, n1, n2)) {
		t.Fatal("key ignores measurement")
	}
	if bytes.Equal(base, DeriveSessionKey(m1, n2, n2)) {
		t.Fatal("key ignores client nonce")
	}
	if bytes.Equal(base, DeriveSessionKey(m1, n1, n1)) {
		t.Fatal("key ignores cloud nonce")
	}
}
