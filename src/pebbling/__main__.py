from .cli import entry

if __name__ == "__main__":
    raise SystemExit(entry())
