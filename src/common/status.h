// Error codes for IPC operations.
//
// The paper's facility reports failures through the return-code word of the
// register set (§4.5.1, Figure 4: PPC_RC(opflags)). We mirror that: every
// failure mode of the PPC path maps onto a small-integer code that fits in
// the opflags word next to the opcode.
#pragma once

#include <cstdint>

namespace hppc {

enum class Status : std::uint8_t {
  kOk = 0,
  /// Entry point id out of range or not bound on this processor.
  kNoSuchEntryPoint,
  /// Entry point exists but was soft-killed: no new calls accepted (§4.5.2).
  kEntryPointDraining,
  /// Call aborted by a hard-kill while in progress (§4.5.2).
  kCallAborted,
  /// Caller's program id rejected by the server's own authentication (§4.1).
  kPermissionDenied,
  /// Resource exhaustion that even Frank could not satisfy (§4.5.6).
  kOutOfResources,
  /// CopyTo/CopyFrom outside a granted region (§4.2).
  kBadRegion,
  /// Server handler signalled an application-level error.
  kServerError,
  /// Request on a facility that has been shut down.
  kShutdown,
  /// Malformed request (bad opcode, bad arguments).
  kInvalidArgument,
  /// The caller's deadline expired before the call completed; the caller
  /// abandoned the wait (the in-flight cell is reclaimed safely, but the
  /// handler may or may not have executed — timed-out-RPC semantics).
  kDeadlineExceeded,
  /// Admission control shed the call (target queue over its watermark) or
  /// the target ring was full for a caller that does not wait for room
  /// (fail-fast, async, or an shm lane). The call never started;
  /// retrying later is safe.
  kOverloaded,
};

/// Human-readable code name, for logs and test diagnostics.
constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "Ok";
    case Status::kNoSuchEntryPoint: return "NoSuchEntryPoint";
    case Status::kEntryPointDraining: return "EntryPointDraining";
    case Status::kCallAborted: return "CallAborted";
    case Status::kPermissionDenied: return "PermissionDenied";
    case Status::kOutOfResources: return "OutOfResources";
    case Status::kBadRegion: return "BadRegion";
    case Status::kServerError: return "ServerError";
    case Status::kShutdown: return "Shutdown";
    case Status::kInvalidArgument: return "InvalidArgument";
    case Status::kDeadlineExceeded: return "DeadlineExceeded";
    case Status::kOverloaded: return "Overloaded";
  }
  return "?";
}

constexpr bool ok(Status s) { return s == Status::kOk; }

}  // namespace hppc
