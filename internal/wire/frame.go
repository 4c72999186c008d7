package wire

// The reliable transport (internal/mpi, internal/fault.Loss) exists only
// as charges: the simulator never builds a frame. Each inter-node
// message under an active loss plan is priced as a sequenced frame
// whose header carries a CRC-32, every attempt, duplicate and
// cumulative ack is added to the virtual clock and the simnet ledgers,
// and a corrupted frame counts as a drop — the receiver would discard
// it and the sender retransmits after its timeout. These constants are
// the header sizes those charges use.

// FrameHeaderBytes is the wire size of a reliable-transport frame
// header: sequence number (8 bytes), payload length (4), CRC-32 (4).
// Every inter-node message under an active loss plan is charged this
// overhead on top of its payload.
const FrameHeaderBytes = 16

// AckFrameBytes is the wire size of a cumulative acknowledgement: a
// header-only frame whose sequence field carries the highest in-order
// sequence delivered.
const AckFrameBytes = FrameHeaderBytes
