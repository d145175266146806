// Package hpav implements the HomePlug AV / IEEE 1901 frame formats the
// paper's measurement methodology relies on: management-message entries
// (MMEs) with their vendor-specific subtypes, start-of-frame (SoF) and
// selective-acknowledgment delimiters, and MPDU/burst framing.
//
// The byte layouts follow the conventions of the open tools the paper
// uses — faifa and the Atheros Open Powerline Toolkit — closely enough
// that the measurement procedures of Section 3 translate verbatim. In
// particular the station-statistics confirmation places the
// acknowledged-frame counter at bytes 25–32 and the collided-frame
// counter at bytes 33–40 of the reply frame (1-based, counted from the
// start of the Ethernet header), exactly as Section 3.2 describes for
// the INT6300's 0xA030 reply.
//
// Everything here is pure codec: no I/O, no time, no state. The
// emulated device (internal/device) and the tools (cmd/ampstat,
// cmd/faifa) speak these bytes over UDP.
package hpav

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// String renders the conventional colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the all-ones address; MMEs to it reach every station on
// the power line.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// ParseMAC parses the colon-separated hexadecimal form.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) != 6 {
		return m, fmt.Errorf("hpav: %q is not a aa:bb:cc:dd:ee:ff address", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("hpav: bad MAC octet %q: %v", p, err)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// EtherTypeHomePlug is the HomePlug AV management ethertype (0x88E1).
const EtherTypeHomePlug = 0x88E1

// MMV is the management-message version field. Version 1 corresponds to
// HomePlug AV 1.1 MMEs, which is what the INT6300 toolchain speaks.
const MMV = 0x01

// OUI is a vendor organizationally-unique identifier. Vendor-specific
// MMEs (the 0xAxxx range) carry one right after the MME header.
type OUI [3]byte

// IntellonOUI is the OUI used by INT6300-class devices (00:B0:52); the
// emulated firmware answers vendor MMEs carrying it.
var IntellonOUI = OUI{0x00, 0xB0, 0x52}

// MMType identifies a management message. The low two bits encode the
// direction: 00 request (REQ), 01 confirm (CNF), 10 indication (IND),
// 11 response (RSP).
type MMType uint16

// Vendor-specific MMTypes used by the paper's tools.
const (
	// MMTypeStatsReq is the 0xA030 statistics request of ampstat: reset
	// or fetch the acknowledged/collided frame counters of a link.
	MMTypeStatsReq MMType = 0xA030
	// MMTypeStatsCnf is the matching confirmation.
	MMTypeStatsCnf MMType = 0xA031
	// MMTypeSnifferReq is the 0xA034 sniffer-mode request of faifa.
	MMTypeSnifferReq MMType = 0xA034
	// MMTypeSnifferCnf confirms a sniffer-mode change.
	MMTypeSnifferCnf MMType = 0xA035
	// MMTypeSnifferInd carries one captured SoF delimiter to the host.
	MMTypeSnifferInd MMType = 0xA036
)

// String names the known types and hex-dumps the rest.
func (t MMType) String() string {
	switch t {
	case MMTypeStatsReq:
		return "VS_STATS.REQ"
	case MMTypeStatsCnf:
		return "VS_STATS.CNF"
	case MMTypeSnifferReq:
		return "VS_SNIFFER.REQ"
	case MMTypeSnifferCnf:
		return "VS_SNIFFER.CNF"
	case MMTypeSnifferInd:
		return "VS_SNIFFER.IND"
	default:
		return fmt.Sprintf("MMType(0x%04X)", uint16(t))
	}
}

// headerLen is the fixed MME prefix: Ethernet (14) + MMV (1) +
// MMTYPE (2) + FMI (2) + OUI (3) = 22 bytes. Every vendor MME payload
// starts at offset 22.
const headerLen = 22

// Frame is a decoded management-message frame.
type Frame struct {
	// ODA and OSA are the destination and source MAC addresses.
	ODA, OSA MAC
	// Type is the management-message type.
	Type MMType
	// FMI is the fragmentation management information field; the tools
	// never fragment, so it is zero everywhere in this system.
	FMI uint16
	// OUI is the vendor identifier of vendor-specific messages.
	OUI OUI
	// Payload is the type-specific body (offset 22 onwards).
	Payload []byte
}

// Errors returned by the codecs.
var (
	ErrShortFrame = errors.New("hpav: frame too short")
	ErrEtherType  = errors.New("hpav: not a HomePlug AV frame (wrong ethertype)")
	ErrMMV        = errors.New("hpav: unsupported management-message version")
	ErrPayload    = errors.New("hpav: malformed MME payload")
)

// Marshal encodes the frame. Multi-byte fields are little-endian, as in
// the HomePlug AV MME encoding (except the Ethernet ethertype, which is
// network order).
func (f *Frame) Marshal() []byte {
	b := make([]byte, headerLen+len(f.Payload))
	copy(b[0:6], f.ODA[:])
	copy(b[6:12], f.OSA[:])
	binary.BigEndian.PutUint16(b[12:14], EtherTypeHomePlug)
	b[14] = MMV
	binary.LittleEndian.PutUint16(b[15:17], uint16(f.Type))
	binary.LittleEndian.PutUint16(b[17:19], f.FMI)
	copy(b[19:22], f.OUI[:])
	copy(b[headerLen:], f.Payload)
	return b
}

// Unmarshal decodes a frame, validating the ethertype and MMV. The
// payload slice aliases b; callers that retain it must copy.
func Unmarshal(b []byte) (*Frame, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, need %d", ErrShortFrame, len(b), headerLen)
	}
	if et := binary.BigEndian.Uint16(b[12:14]); et != EtherTypeHomePlug {
		return nil, fmt.Errorf("%w: 0x%04X", ErrEtherType, et)
	}
	if b[14] != MMV {
		return nil, fmt.Errorf("%w: %d", ErrMMV, b[14])
	}
	f := &Frame{
		Type:    MMType(binary.LittleEndian.Uint16(b[15:17])),
		FMI:     binary.LittleEndian.Uint16(b[17:19]),
		Payload: b[headerLen:],
	}
	copy(f.ODA[:], b[0:6])
	copy(f.OSA[:], b[6:12])
	copy(f.OUI[:], b[19:22])
	return f, nil
}
