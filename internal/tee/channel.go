package tee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// SecureChannel is the authenticated, encrypted session between the client
// TEE and its dedicated cloud VM (§3.2: "All the communication between the
// cloud VM and the TEE is authenticated and encrypted"). It is an AES-GCM
// channel with explicit sequence numbers for replay protection; the shared
// key comes from the attested session establishment (see the cloud package).
type SecureChannel struct {
	aead    cipher.AEAD
	sendSeq uint64
	recvSeq uint64
}

// NewSecureChannel builds one endpoint of a channel over a 32-byte session
// key. Both endpoints derive from the same key; direction is disambiguated
// by the fromInitiator flag nonceFor mixes into the nonce.
func NewSecureChannel(key []byte) (*SecureChannel, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("tee: session key must be 32 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &SecureChannel{aead: aead}, nil
}

func nonceFor(seq uint64, fromInitiator bool) []byte {
	n := make([]byte, 12)
	binary.LittleEndian.PutUint64(n, seq)
	if fromInitiator {
		n[11] = 1
	}
	return n
}

// Seal encrypts and authenticates a message in the given direction.
func (c *SecureChannel) Seal(plaintext []byte, fromInitiator bool) []byte {
	ct := c.aead.Seal(nil, nonceFor(c.sendSeq, fromInitiator), plaintext, nil)
	out := make([]byte, 8+len(ct))
	binary.LittleEndian.PutUint64(out, c.sendSeq)
	copy(out[8:], ct)
	c.sendSeq++
	return out
}

// Open authenticates and decrypts a message, enforcing strictly increasing
// sequence numbers (no replays, no reordering).
func (c *SecureChannel) Open(msg []byte, fromInitiator bool) ([]byte, error) {
	if len(msg) < 8 {
		return nil, fmt.Errorf("tee: short channel message")
	}
	seq := binary.LittleEndian.Uint64(msg)
	if seq < c.recvSeq {
		return nil, fmt.Errorf("tee: replayed channel message (seq %d < %d)", seq, c.recvSeq)
	}
	pt, err := c.aead.Open(nil, nonceFor(seq, fromInitiator), msg[8:], nil)
	if err != nil {
		return nil, fmt.Errorf("tee: channel authentication failed: %w", err)
	}
	c.recvSeq = seq + 1
	return pt, nil
}

// DeriveSessionKey mixes the attestation evidence and both parties' nonces
// into the session key — a stand-in for the attested-TLS handshake the
// paper cites [39].
func DeriveSessionKey(measurement [32]byte, clientNonce, cloudNonce []byte) []byte {
	h := hmac.New(sha256.New, measurement[:])
	h.Write(clientNonce)
	h.Write(cloudNonce)
	return h.Sum(nil)
}
