# Sourced by the smoke scripts: run `portopt serve` for the length of a
# check.  Expects BIN (the built binary) and SMOKE (the message prefix).
#
#   start_server SOCK LOG [serve options...]
#       Start the server on SOCK in the background, logging to LOG, with
#       a trap that kills it if the script exits early.  Waits up to
#       10 s for the socket; if it never appears, prints LOG and exits 1.
#   stop_server
#       Send the admin shutdown (the server needs --admin), wait for the
#       server to exit, drop the trap and check the log for the drain.

start_server() {
  SOCK=$1
  SERVER_LOG=$2
  shift 2
  "$BIN" serve --socket "$SOCK" "$@" >"$SERVER_LOG" 2>&1 &
  SERVER=$!
  trap 'kill "$SERVER" 2>/dev/null || true' EXIT
  i=0
  while [ ! -S "$SOCK" ] && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  if [ ! -S "$SOCK" ]; then
    echo "$SMOKE: server never came up" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
}

stop_server() {
  "$BIN" query --socket "$SOCK" --shutdown | grep -q '"stopping":true'
  wait "$SERVER"
  trap - EXIT
  grep -q "drained, bye" "$SERVER_LOG"
}
